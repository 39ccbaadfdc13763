/**
 * @file
 * Harness of the tool tests (tests/test_tool_*.cc): run the built
 * drivers and tools as child processes and check what they leave
 * behind, the way a user runs them.
 *
 *  - Binaries come from RSEP_BINARY_DIR (the build tree) and repo files
 *    from RSEP_SOURCE_DIR. CMake builds every binary the tool tests
 *    spawn before it builds a tool test.
 *  - A child inherits the test's environment minus RSEP_SIM_SCALE,
 *    RSEP_CHECKPOINTS, RSEP_JOBS and RSEP_FAULT. A case that wants one
 *    of them sets it explicitly (Env), so the developer's shell cannot
 *    change a result.
 *  - Each WorkDir is a short mkdtemp path under /tmp, so a daemon
 *    socket inside it stays within the 108-byte AF_UNIX limit. It is
 *    removed when the binary has seen no failure, and kept (its path
 *    printed) otherwise.
 *  - A Process still running when it goes out of scope is SIGKILLed
 *    and reaped, so a failing case never leaves an rsep_serve behind.
 *  - Every run has a timeout; a child that outlives it is killed and
 *    reported as exit code -1.
 */

#ifndef RSEP_TESTS_TOOL_HARNESS_HH
#define RSEP_TESTS_TOOL_HARNESS_HH

#include <gtest/gtest.h>

#include <fcntl.h>
#include <regex.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/stat_export.hh"

extern char **environ;

namespace rsep::tooltest
{

namespace fs = std::filesystem;

using Args = std::vector<std::string>;
/** NAME=VALUE settings a case gives its child on top of the filtered
 *  inherited environment. */
using Env = std::vector<std::pair<std::string, std::string>>;

inline constexpr std::chrono::seconds defaultTimeout{300};

/** @p argv followed by @p extra. */
inline Args
with(Args argv, const Args &extra)
{
    argv.insert(argv.end(), extra.begin(), extra.end());
    return argv;
}

/** A repo file, e.g. repoFile("examples/scenarios/ci_smoke.scn"). */
inline std::string
repoFile(const std::string &rel)
{
    return std::string(RSEP_SOURCE_DIR) + "/" + rel;
}

/** The two-arm smoke sweep most tool cases run. */
inline std::string
ciSmoke()
{
    return repoFile("examples/scenarios/ci_smoke.scn");
}

inline std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

inline void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/**
 * Capture groups (0 = the whole match) of the first match of the POSIX
 * extended regex @p pattern (grep -E syntax) in @p text, where `^` and
 * `$` match at line ends; empty when nothing matches.
 */
inline std::vector<std::string>
grep(const std::string &text, const std::string &pattern)
{
    regex_t re;
    if (::regcomp(&re, pattern.c_str(), REG_EXTENDED | REG_NEWLINE) != 0) {
        ADD_FAILURE() << "bad regex " << pattern;
        return {};
    }
    std::vector<regmatch_t> m(re.re_nsub + 1);
    std::vector<std::string> groups;
    if (::regexec(&re, text.c_str(), m.size(), m.data(), 0) == 0)
        for (const regmatch_t &g : m)
            groups.push_back(g.rm_so < 0 ? std::string()
                                         : text.substr(g.rm_so,
                                                       g.rm_eo - g.rm_so));
    ::regfree(&re);
    return groups;
}

/** Outcome of one child process. */
struct RunResult
{
    std::string command; ///< argv joined by spaces, for diagnostics.
    int exitCode = -1;   ///< exit status; 128+N if killed by signal N;
                         ///< -1 if the harness killed it on timeout.
    std::string out;
    std::string err;

    /** stdout and stderr together (the CI's `> log 2>&1`). */
    std::string output() const { return out + err; }
    bool mentions(const std::string &text) const
    {
        return output().find(text) != std::string::npos;
    }
};

inline std::ostream &
operator<<(std::ostream &os, const RunResult &r)
{
    return os << "\n$ " << r.command << "\nexit " << r.exitCode
              << "\n--- stdout\n" << r.out << "--- stderr\n" << r.err;
}

/** A spawned child: wait() for it, or signal() it first. Killed and
 *  reaped on destruction if still running. */
class Process
{
  public:
    Process(pid_t pid, std::string command, std::string out_path,
            std::string err_path)
        : pid(pid), command(std::move(command)),
          outPath(std::move(out_path)), errPath(std::move(err_path))
    {
    }
    Process(Process &&o) noexcept
        : pid(std::exchange(o.pid, -1)), command(std::move(o.command)),
          outPath(std::move(o.outPath)), errPath(std::move(o.errPath))
    {
    }
    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;
    Process &operator=(Process &&) = delete;
    ~Process()
    {
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }

    void signal(int sig) const
    {
        if (pid > 0)
            ::kill(pid, sig);
    }

    /** Still running (not yet exited or reaped)? */
    bool running() const
    {
        siginfo_t info{};
        return pid > 0 &&
               ::waitid(P_PID, pid, &info, WEXITED | WNOHANG | WNOWAIT) == 0 &&
               info.si_pid == 0;
    }

    /** stderr captured so far. */
    std::string errSoFar() const { return readFile(errPath); }

    RunResult wait(std::chrono::seconds timeout = defaultTimeout)
    {
        RunResult r;
        r.command = command;
        if (pid > 0) {
            auto deadline = std::chrono::steady_clock::now() + timeout;
            auto nap = std::chrono::microseconds(500);
            int status = 0;
            pid_t got = 0;
            while ((got = ::waitpid(pid, &status, WNOHANG)) == 0) {
                if (std::chrono::steady_clock::now() >= deadline) {
                    ::kill(pid, SIGKILL);
                    ::waitpid(pid, nullptr, 0);
                    break;
                }
                std::this_thread::sleep_for(nap);
                nap = std::min(nap * 2, std::chrono::microseconds(20'000));
            }
            if (got == pid)
                r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status)
                                               : 128 + WTERMSIG(status);
            pid = -1;
        }
        r.out = readFile(outPath);
        r.err = readFile(errPath);
        if (r.exitCode == -1)
            r.err += "[harness] killed after " +
                     std::to_string(timeout.count()) + " s\n";
        return r;
    }

  private:
    pid_t pid;
    std::string command;
    std::string outPath, errPath;
};

/** A private working directory for one case (or one shared fixture). */
class WorkDir
{
  public:
    WorkDir()
    {
        char tmpl[] = "/tmp/rsep-tool-XXXXXX";
        if (!::mkdtemp(tmpl))
            throw std::runtime_error(std::string("mkdtemp: ") +
                                     std::strerror(errno));
        root = tmpl;
        fs::create_directory(root + "/.io");
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;
    ~WorkDir()
    {
        if (::testing::Test::HasFailure() ||
            ::testing::UnitTest::GetInstance()->failed_test_count() > 0) {
            std::fprintf(stderr, "[tool test] kept %s\n", root.c_str());
            return;
        }
        std::error_code ec;
        fs::remove_all(root, ec);
    }

    const std::string &path() const { return root; }
    /** Absolute path of @p rel inside this directory. */
    std::string operator/(const std::string &rel) const
    {
        return root + "/" + rel;
    }

    /**
     * Start argv[0] (a binary name from the build tree) in this
     * directory with stdin from /dev/null and stdout/stderr captured.
     */
    Process spawn(const Args &argv, const Env &env = {})
    {
        std::string tag = std::to_string(spawned++);
        std::string out_path = root + "/.io/" + tag + ".out";
        std::string err_path = root + "/.io/" + tag + ".err";
        std::string binary = std::string(RSEP_BINARY_DIR) + "/" + argv.at(0);
        std::string command;
        for (const std::string &a : argv)
            command += (command.empty() ? "" : " ") + a;

        // Build every exec argument before fork: the child may only
        // make async-signal-safe calls.
        std::vector<std::string> env_strings;
        for (char **e = environ; *e; ++e) {
            std::string entry = *e;
            std::string name = entry.substr(0, entry.find('='));
            bool dropped = name == "RSEP_SIM_SCALE" ||
                           name == "RSEP_CHECKPOINTS" ||
                           name == "RSEP_JOBS" || name == "RSEP_FAULT";
            for (const auto &[key, value] : env)
                dropped = dropped || name == key;
            if (!dropped)
                env_strings.push_back(std::move(entry));
        }
        for (const auto &[key, value] : env)
            env_strings.push_back(key + "=" + value);
        std::vector<char *> cargv, cenv;
        cargv.push_back(binary.data());
        for (size_t i = 1; i < argv.size(); ++i)
            cargv.push_back(const_cast<char *>(argv[i].c_str()));
        cargv.push_back(nullptr);
        for (std::string &e : env_strings)
            cenv.push_back(e.data());
        cenv.push_back(nullptr);

        pid_t pid = ::fork();
        if (pid == 0) {
            int in = ::open("/dev/null", O_RDONLY);
            int out = ::open(out_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
            int err = ::open(err_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (in < 0 || out < 0 || err < 0 ||
                ::chdir(root.c_str()) != 0 || ::dup2(in, 0) < 0 ||
                ::dup2(out, 1) < 0 || ::dup2(err, 2) < 0)
                ::_exit(126);
            ::execve(cargv[0], cargv.data(), cenv.data());
            ::_exit(127);
        }
        if (pid < 0)
            throw std::runtime_error(std::string("fork: ") +
                                     std::strerror(errno));
        return Process(pid, command, out_path, err_path);
    }

    /** spawn() and wait(). */
    RunResult run(const Args &argv, const Env &env = {},
                  std::chrono::seconds timeout = defaultTimeout)
    {
        return spawn(argv, env).wait(timeout);
    }

  private:
    std::string root;
    unsigned spawned = 0;
};

/**
 * Start `rsep_serve --socket SOCKET ARGS...` in @p dir (stderr is the
 * daemon log) and wait until it listens. Stop it with
 * signal(SIGTERM) + wait(); the summary lines are in the result's err.
 */
inline Process
startDaemon(WorkDir &dir, const std::string &socket, const Args &args = {})
{
    Process p = dir.spawn(with({"rsep_serve", "--socket", socket}, args));
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (p.errSoFar().find("[serve] listening on") == std::string::npos) {
        if (!p.running() || std::chrono::steady_clock::now() >= deadline) {
            ADD_FAILURE() << "rsep_serve did not start listening"
                          << p.wait(std::chrono::seconds(1));
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return p;
}

/** Byte equality of two files (the CI's `cmp`), naming the first
 *  differing line. */
inline ::testing::AssertionResult
sameFile(const std::string &a, const std::string &b)
{
    if (!fs::exists(a) || !fs::exists(b))
        return ::testing::AssertionFailure()
               << (fs::exists(a) ? b : a) << " does not exist";
    std::string x = readFile(a), y = readFile(b);
    if (x == y)
        return ::testing::AssertionSuccess();
    size_t at = 0;
    while (at < x.size() && at < y.size() && x[at] == y[at])
        ++at;
    size_t line = 1 + std::count(x.begin(), x.begin() + at, '\n');
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ at byte " << at << ", line "
           << line << " (sizes " << x.size() << " and " << y.size() << ")";
}

/** Regular files under @p dir (recursive) whose name ends with
 *  @p suffix, sorted by path; none if @p dir does not exist. */
inline std::vector<std::string>
filesUnder(const std::string &dir, const std::string &suffix = "")
{
    std::vector<std::string> out;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
        std::string p = it->path().string();
        if (it->is_regular_file() && p.size() >= suffix.size() &&
            p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0)
            out.push_back(p);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Two trees hold the same relative file names with the same bytes
 *  (the CI's `diff -r`). */
inline ::testing::AssertionResult
sameTree(const std::string &a, const std::string &b)
{
    std::vector<std::string> fa = filesUnder(a), fb = filesUnder(b);
    if (fa.empty())
        return ::testing::AssertionFailure() << a << " holds no files";
    auto rel = [](const std::vector<std::string> &files,
                  const std::string &root) {
        std::vector<std::string> out;
        for (const std::string &f : files)
            out.push_back(f.substr(root.size()));
        return out;
    };
    if (rel(fa, a) != rel(fb, b))
        return ::testing::AssertionFailure()
               << a << " and " << b << " hold different file names";
    for (size_t i = 0; i < fa.size(); ++i)
        if (auto same = sameFile(fa[i], fb[i]); !same)
            return same;
    return ::testing::AssertionSuccess();
}

/** Sum of counter @p name over @p rows; a row without it is a
 *  failure (the counter must be in every row of the dump). */
inline u64
sumCounter(const std::vector<sim::StatRow> &rows, const std::string &name)
{
    u64 sum = 0;
    for (const sim::StatRow &row : rows) {
        auto it = std::find_if(row.counters.begin(), row.counters.end(),
                               [&](const auto &c) { return c.first == name; });
        if (it == row.counters.end())
            ADD_FAILURE() << row.benchmark << "/" << row.scenario
                          << " has no counter " << name;
        else
            sum += it->second;
    }
    return sum;
}

/** Rows of an unquoted CSV (the sample timelines `rsep_samples`
 *  renders), each keyed by header column. */
inline std::vector<std::map<std::string, std::string>>
readPlainCsv(const std::string &path)
{
    auto split = [](const std::string &line) {
        std::vector<std::string> cells;
        std::stringstream ss(line);
        for (std::string cell; std::getline(ss, cell, ',');)
            cells.push_back(cell);
        return cells;
    };
    std::ifstream is(path);
    std::string line;
    std::vector<std::map<std::string, std::string>> rows;
    if (!std::getline(is, line))
        return rows;
    std::vector<std::string> header = split(line);
    while (std::getline(is, line)) {
        std::vector<std::string> cells = split(line);
        EXPECT_EQ(cells.size(), header.size()) << path << ": " << line;
        std::map<std::string, std::string> row;
        for (size_t i = 0; i < std::min(cells.size(), header.size()); ++i)
            row[header[i]] = cells[i];
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace rsep::tooltest

#endif // RSEP_TESTS_TOOL_HARNESS_HH
