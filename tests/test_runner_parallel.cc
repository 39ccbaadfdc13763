/**
 * @file
 * Determinism tests for the parallel experiment matrix: runMatrix must
 * produce bit-identical MatrixRow contents at any thread count, because
 * every (benchmark, config, checkpoint) cell is independently seeded
 * and writes a preassigned output slot.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

#include "sim/runner.hh"
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
    std::vector<SimConfig> configs = {shrunk(SimConfig::baseline()),
                                      shrunk(SimConfig::rsepRealistic())};
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

TEST(RunnerParallel, MatrixMatchesSerialRunWorkload)
{
    SimConfig cfg = shrunk(SimConfig::rsepRealistic());
    MatrixOptions wide;
    wide.jobs = 3;
    wide.progress = false;
    auto rows = runMatrix({cfg}, {"hmmer"}, wide);
    RunResult serial = runWorkload(cfg, "hmmer");
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

TEST(RunnerParallel, JobsResolution)
{
    EXPECT_EQ(resolveJobs(7), 7u);
    EXPECT_GE(resolveJobs(0), 1u);

    // Each spelling matches at position 1 and leaves i on the last
    // argv entry it consumed.
    auto parsed = [](std::vector<const char *> args, int last) {
        args.insert(args.begin(), "prog");
        int i = 1;
        unsigned jobs = 0;
        std::string err;
        EXPECT_TRUE(matchJobsArg(static_cast<int>(args.size()),
                                 const_cast<char **>(args.data()), i, jobs,
                                 err))
            << args[1];
        EXPECT_TRUE(err.empty()) << err;
        EXPECT_EQ(i, last) << args[1];
        return jobs;
    };
    EXPECT_EQ(parsed({"--jobs", "5"}, 2), 5u);
    EXPECT_EQ(parsed({"--jobs=9"}, 1), 9u);
    EXPECT_EQ(parsed({"-j", "4"}, 2), 4u);
    EXPECT_EQ(parsed({"-j3"}, 1), 3u);

    // Any other argument is not a jobs flag: no match, nothing parsed.
    for (const char *other : {"other", "--jobsx", "-", "--j=2"}) {
        std::vector<const char *> args = {"prog", other, "7"};
        int i = 1;
        unsigned jobs = 0;
        std::string err;
        EXPECT_FALSE(matchJobsArg(3, const_cast<char **>(args.data()), i,
                                  jobs, err))
            << other;
        EXPECT_EQ(i, 1);
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

    // A matched flag with a bad value: matched, with a diagnostic.
    auto scan = [&](std::vector<const char *> args) {
        args.insert(args.begin(), "prog");
        int i = 1;
        jobs = 0;
        err.clear();
        bool matched = matchJobsArg(static_cast<int>(args.size()),
                                    const_cast<char **>(args.data()), i,
                                    jobs, err);
        return matched && err.empty();
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
    std::vector<const char *> unrelated = {"prog", "unrelated"};
    int i = 1;
    jobs = 0;
    EXPECT_FALSE(matchJobsArg(2, const_cast<char **>(unrelated.data()), i,
                              jobs, err));
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
