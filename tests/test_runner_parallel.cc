/**
 * @file
 * Determinism tests for the parallel experiment matrix: runMatrix must
 * produce bit-identical MatrixRow contents at any thread count, because
 * every (benchmark, config, checkpoint) cell is independently seeded
 * and writes a preassigned output slot.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>

#include "common/cli.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"
#include "sim/thread_pool.hh"

namespace rsep::sim
{
namespace
{

SimConfig
shrunk(SimConfig c)
{
    c.warmupInsts = 4'000;
    c.measureInsts = 12'000;
    c.checkpoints = 2;
    c.seed = 0x5eed;
    return c;
}

void
expectIdentical(const std::vector<MatrixRow> &a,
                const std::vector<MatrixRow> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t r = 0; r < a.size(); ++r) {
        SCOPED_TRACE(a[r].benchmark);
        EXPECT_EQ(a[r].benchmark, b[r].benchmark);
        ASSERT_EQ(a[r].byConfig.size(), b[r].byConfig.size());
        for (size_t c = 0; c < a[r].byConfig.size(); ++c) {
            const RunResult &x = a[r].byConfig[c];
            const RunResult &y = b[r].byConfig[c];
            SCOPED_TRACE(x.configLabel);
            EXPECT_EQ(x.configLabel, y.configLabel);
            ASSERT_EQ(x.phases.size(), y.phases.size());
            for (size_t p = 0; p < x.phases.size(); ++p) {
                // Bit-identical, not approximately equal: the same
                // cell runs the same deterministic simulation whatever
                // thread it lands on.
                EXPECT_EQ(x.phases[p].ipc, y.phases[p].ipc);
                EXPECT_EQ(x.phases[p].stats.cycles.value(),
                          y.phases[p].stats.cycles.value());
                EXPECT_EQ(x.phases[p].stats.committedInsts.value(),
                          y.phases[p].stats.committedInsts.value());
                EXPECT_EQ(x.phases[p].stats.rsepCorrect.value(),
                          y.phases[p].stats.rsepCorrect.value());
                EXPECT_EQ(x.phases[p].stats.rsepMispredicts.value(),
                          y.phases[p].stats.rsepMispredicts.value());
                EXPECT_EQ(x.phases[p].stats.commitSquashes.value(),
                          y.phases[p].stats.commitSquashes.value());
                EXPECT_EQ(x.phases[p].stats.committedBranches.value(),
                          y.phases[p].stats.committedBranches.value());
            }
        }
    }
}

TEST(RunnerParallel, MatrixIsThreadCountInvariant)
{
    std::vector<SimConfig> configs = {
        shrunk(findScenario("baseline")->config),
        shrunk(findScenario("rsep-realistic")->config)};
    std::vector<std::string> benches = {"namd", "hmmer", "mcf"};

    MatrixOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    MatrixOptions wide;
    wide.jobs = 4;
    wide.progress = false;

    auto rows1 = runMatrix(configs, benches, serial);
    auto rows4 = runMatrix(configs, benches, wide);
    expectIdentical(rows1, rows4);
}

/** @p cfg's run of @p bench, one runPhase per checkpoint, each cell
 *  initialising its own emulator. */
RunResult
serialRun(const SimConfig &cfg, const std::string &bench)
{
    RunResult out;
    out.benchmark = bench;
    out.configLabel = cfg.label;
    for (u32 p = 0; p < cfg.checkpoints; ++p)
        out.phases.push_back(runPhase(cfg, bench, p));
    return out;
}

TEST(RunnerParallel, MatrixMatchesSerialRunPhase)
{
    SimConfig cfg = shrunk(findScenario("rsep-realistic")->config);
    MatrixOptions wide;
    wide.jobs = 3;
    wide.progress = false;
    auto rows = runMatrix({cfg}, {"hmmer"}, wide);
    RunResult serial = serialRun(cfg, "hmmer");
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].byConfig.size(), 1u);
    const RunResult &par = rows[0].byConfig[0];
    ASSERT_EQ(par.phases.size(), serial.phases.size());
    for (size_t p = 0; p < par.phases.size(); ++p) {
        EXPECT_EQ(par.phases[p].ipc, serial.phases[p].ipc);
        EXPECT_EQ(par.phases[p].stats.cycles.value(),
                  serial.phases[p].stats.cycles.value());
    }
    EXPECT_EQ(par.ipcHmean(), serial.ipcHmean());
}

std::string
csvDump(const std::vector<SimConfig> &configs,
        const std::vector<MatrixRow> &rows)
{
    std::ostringstream os;
    CsvStatSink().write(os, collectStatRows(configs, rows));
    return os.str();
}

TEST(RunnerParallel, SharedInitialStatesGiveTheDumpOfPrivateInits)
{
    // The cells of a (row, phase) share one post-init image. The dump
    // is the same at any worker count, and the same as when every
    // cell initialises its own emulator (serialRun); no image
    // outlives the matrix.
    for (u32 checkpoints : {1u, 2u}) {
        SCOPED_TRACE(std::to_string(checkpoints) + " checkpoint(s)");
        std::vector<SimConfig> configs;
        for (const char *arm : {"baseline", "rsep", "vpred"}) {
            configs.push_back(shrunk(findScenario(arm)->config));
            configs.back().checkpoints = checkpoints;
        }
        std::vector<std::string> benches = {"libquantum", "mcf", "bzip2"};
        std::string dump[2];
        for (unsigned jobs : {1u, 4u}) {
            MatrixOptions mo;
            mo.jobs = jobs;
            mo.progress = false;
            dump[jobs == 4] = csvDump(configs, runMatrix(configs, benches, mo));
            EXPECT_EQ(InitialState::alive(), 0u) << jobs << " jobs";
        }
        EXPECT_EQ(dump[0], dump[1]);

        std::vector<MatrixRow> own;
        for (const std::string &b : benches) {
            own.push_back({b, {}});
            for (const SimConfig &cfg : configs)
                own.back().byConfig.push_back(serialRun(cfg, b));
        }
        EXPECT_EQ(dump[0], csvDump(configs, own));
    }
}

/** A scratch result-cache directory, removed on scope exit. */
struct TempCacheDir
{
    std::string path = (std::filesystem::temp_directory_path() /
                        ("rsep-runner-test-" + std::to_string(::getpid())))
                           .string();
    ~TempCacheDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

TEST(RunnerParallel, InitialStateIsReleasedWhenRowsMixCacheHits)
{
    // Each row's last cell (baseline) is a result-cache hit, and the
    // namd row is all hits. A row's image must still be gone when the
    // next row starts, and a row of hits builds none.
    TempCacheDir dir;
    SimConfig rsep = shrunk(findScenario("rsep")->config);
    SimConfig base = shrunk(findScenario("baseline")->config);
    rsep.checkpoints = base.checkpoints = 1;
    std::vector<std::string> benches = {"mcf", "hmmer", "namd"};
    MatrixOptions fill;
    fill.jobs = 2;
    fill.progress = false;
    fill.cacheDir = dir.path;
    runMatrix({base}, benches, fill);
    runMatrix({rsep}, {"namd"}, fill);

    std::vector<SimConfig> configs = {rsep, base};
    MatrixPlan plan = planMatrix(configs, benches);
    ResultCache cache(dir.path);
    ThreadPool pool(1);
    std::vector<std::string> seen;
    runCells(pool, configs, plan, &cache, {}, 0, [](size_t, size_t, u32) {},
             [&](size_t b, size_t c, u32, const std::function<void()> &step) {
                 seen.push_back(benches[b] + "/" + configs[c].label + " " +
                                std::to_string(InitialState::alive()));
                 step();
                 return true;
             });
    // One worker starts cells row by row, config by config: the only
    // image alive at a cell's start is its own row's, built by rsep.
    std::vector<std::string> want = {"mcf/rsep 0",   "mcf/baseline 1",
                                     "hmmer/rsep 0", "hmmer/baseline 1",
                                     "namd/rsep 0",  "namd/baseline 0"};
    EXPECT_EQ(seen, want);
    EXPECT_EQ(InitialState::alive(), 0u);
    for (const MatrixRow &row : plan.rows) {
        EXPECT_EQ(row.byConfig[0].phases[0].fromCache, row.benchmark == "namd");
        EXPECT_TRUE(row.byConfig[1].phases[0].fromCache);
    }
}

TEST(RunnerParallel, ThreadPoolRunsAllTasksAcrossWorkers)
{
    ThreadPool pool(4);
    std::atomic<int> hits{0};
    for (int i = 0; i < 256; ++i)
        pool.submit([&hits] { ++hits; });
    pool.wait();
    EXPECT_EQ(hits.load(), 256);
    // The pool is reusable after a wait().
    for (int i = 0; i < 32; ++i)
        pool.submit([&hits] { ++hits; });
    pool.wait();
    EXPECT_EQ(hits.load(), 288);
}

TEST(RunnerParallel, TwoPlansShareOnePool)
{
    // The daemon's pattern: two requests run their plans on one pool
    // at once. Each runCells returns once its own cells are done, and
    // each plan's dump is the one runMatrix gives alone.
    const std::vector<SimConfig> configs[2] = {
        {shrunk(findScenario("baseline")->config),
         shrunk(findScenario("rsep")->config)},
        {shrunk(findScenario("vpred")->config)}};
    const std::vector<std::string> benches[2] = {
        {"mcf", "hmmer"}, {"libquantum", "mcf", "bzip2"}};
    MatrixPlan plans[2] = {planMatrix(configs[0], benches[0]),
                           planMatrix(configs[1], benches[1])};
    size_t unfinished[2] = {0, 0};
    ThreadPool pool(2);
    std::vector<std::thread> requests;
    for (size_t i = 0; i < 2; ++i)
        requests.emplace_back([&, i] {
            MatrixPlan &plan = plans[i];
            runCells(pool, configs[i], plan, nullptr, {}, 0,
                     [](size_t, size_t, u32) {});
            for (const MatrixRow &row : plan.rows)
                for (const RunResult &rr : row.byConfig)
                    for (const PhaseResult &ph : rr.phases)
                        unfinished[i] += ph.stats.cycles.value() == 0;
        });
    for (std::thread &t : requests)
        t.join();
    for (size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE("plan " + std::to_string(i));
        EXPECT_EQ(unfinished[i], 0u);
        MatrixOptions mo;
        mo.jobs = 1;
        mo.progress = false;
        EXPECT_EQ(csvDump(configs[i], plans[i].rows),
                  csvDump(configs[i], runMatrix(configs[i], benches[i], mo)));
    }
}

/** Parse @p args (argv without argv[0]) against a table holding only
 *  the drivers' `--jobs N` / `-jN` option, which fills @p jobs. */
cli::Parsed
parseJobsArgs(std::vector<const char *> args, unsigned &jobs)
{
    args.insert(args.begin(), "prog");
    std::vector<cli::Option> table = {
        {"jobs", "N", "worker threads",
         [&jobs](const std::string &v) {
             std::string err;
             parseJobsValue(v, jobs, err);
             return err;
         },
         'j'}};
    return cli::parse(static_cast<int>(args.size()),
                      const_cast<char **>(args.data()), table);
}

TEST(RunnerParallel, JobsResolution)
{
    EXPECT_EQ(resolveJobs(7), 7u);
    EXPECT_GE(resolveJobs(0), 1u);

    // Each spelling matches and consumes exactly its value: a trailing
    // argument is left over as the only positional.
    auto parsed = [](std::vector<const char *> args) {
        args.push_back("rest");
        unsigned jobs = 0;
        cli::Parsed p = parseJobsArgs(args, jobs);
        EXPECT_TRUE(p.ok()) << args[0] << ": " << p.error;
        EXPECT_EQ(p.positional, std::vector<std::string>{"rest"})
            << args[0];
        return jobs;
    };
    EXPECT_EQ(parsed({"--jobs", "5"}), 5u);
    EXPECT_EQ(parsed({"--jobs=9"}), 9u);
    EXPECT_EQ(parsed({"-j", "4"}), 4u);
    EXPECT_EQ(parsed({"-j3"}), 3u);

    // Any other argument is not a jobs flag: nothing parsed. Plain
    // words stay positional; look-alike flags are unknown options.
    for (const char *other : {"other", "-"}) {
        unsigned jobs = 0;
        cli::Parsed p = parseJobsArgs({other, "7"}, jobs);
        EXPECT_TRUE(p.ok()) << other;
        EXPECT_EQ(p.positional,
                  (std::vector<std::string>{other, "7"}));
        EXPECT_EQ(jobs, 0u);
    }
    for (const char *other : {"--jobsx", "--j=2"}) {
        unsigned jobs = 0;
        cli::Parsed p = parseJobsArgs({other, "7"}, jobs);
        EXPECT_NE(p.error.find("unknown option"), std::string::npos)
            << other;
        EXPECT_EQ(jobs, 0u);
    }
}

TEST(RunnerParallel, JobsParsingRejectsMalformedValues)
{
    unsigned jobs = 0;
    std::string err;

    EXPECT_TRUE(parseJobsValue("12", jobs, err));
    EXPECT_EQ(jobs, 12u);
    EXPECT_TRUE(parseJobsValue("0", jobs, err)); // explicit auto.
    EXPECT_EQ(jobs, 0u);

    // Non-numeric, negative, trailing garbage, overflowing and absurd
    // values produce a diagnostic instead of silently becoming 0/auto.
    for (const char *bad :
         {"abc", "-3", "4x", "", "99999999999999999999", "4097"}) {
        err.clear();
        EXPECT_FALSE(parseJobsValue(bad, jobs, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }

    // A matched flag with a bad value: a diagnostic.
    auto scan = [&](std::vector<const char *> args) {
        jobs = 0;
        cli::Parsed p = parseJobsArgs(args, jobs);
        err = p.error;
        return p.ok();
    };
    EXPECT_TRUE(scan({"--jobs", "6"}));
    EXPECT_EQ(jobs, 6u);
    EXPECT_FALSE(scan({"--jobs", "abc"}));
    EXPECT_NE(err.find("invalid jobs count"), std::string::npos);
    EXPECT_FALSE(scan({"--jobs=1e3"}));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(scan({"-jfast"}));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(scan({"-j", "-1"}));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(scan({"--jobs"})); // dangling flag.
    EXPECT_NE(err.find("requires a value"), std::string::npos);
    EXPECT_FALSE(scan({"-j"}));
    EXPECT_NE(err.find("requires a value"), std::string::npos);
    EXPECT_FALSE(scan({"--jobs=4097"})); // over the ceiling.
    EXPECT_NE(err.find("ceiling"), std::string::npos);

    // Absent: an unrelated argument is not matched and jobs stays auto.
    EXPECT_TRUE(scan({"unrelated"}));
    EXPECT_EQ(jobs, 0u);
}

TEST(RunnerParallel, MalformedRsepJobsEnvFallsBackToAuto)
{
    setenv("RSEP_JOBS", "not-a-number", 1);
    EXPECT_GE(resolveJobs(0), 1u); // warns, then auto.
    setenv("RSEP_JOBS", "999999999", 1);
    unsigned resolved = resolveJobs(0);
    EXPECT_GE(resolved, 1u);
    EXPECT_LE(resolved, maxJobs); // absurd values are not honoured.
    setenv("RSEP_JOBS", "3", 1);
    EXPECT_EQ(resolveJobs(0), 3u);
    unsetenv("RSEP_JOBS");
}

} // namespace
} // namespace rsep::sim
