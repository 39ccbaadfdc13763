/**
 * @file
 * Tool tests of the DESIGN.md §14 failure model with the real binaries
 * (tests/tool_harness.hh): every injected fault ends in recovery with
 * a byte-identical dump or in a clean non-zero failure naming the
 * operation, and the daemon survives to serve the next clean request.
 * The in-process fault matrix is tests/test_fault.cc; these cases
 * replay its cross-process sweeps, and under an ASan+UBSan build they
 * run sanitized binaries.
 */

#include <gtest/gtest.h>

#include <csignal>

#include "tool_harness.hh"

namespace rsep::tooltest
{
namespace
{

Args
replayMcf(const Args &extra)
{
    return with({"bench_fig4_speedup", "--scenario-file", ciSmoke(),
                 "--workload", "mcf", "--replay-trace", "traces"},
                extra);
}

/** Recorded mcf traces and the direct replay dump, made once. */
struct Reference
{
    WorkDir dir;
    RunResult record = dir.run({"bench_fig4_speedup", "--scenario-file",
                                ciSmoke(), "--workload", "mcf",
                                "--record-trace", "traces", "--jobs", "2",
                                "--csv", "/dev/null"});
    RunResult direct = dir.run(replayMcf({"--jobs", "2", "--csv", "direct.csv"}));
};

/** The shared reference, with its traces copied into @p dir. */
const Reference &
reference(WorkDir &dir)
{
    static Reference r;
    EXPECT_EQ(r.record.exitCode, 0) << r.record;
    EXPECT_EQ(r.direct.exitCode, 0) << r.direct;
    fs::copy(r.dir / "traces", dir / "traces");
    return r;
}

TEST(ToolFault, DroppedDaemonFrameRecoversViaResubmit)
{
    WorkDir dir;
    const Reference &ref = reference(dir);
    // The daemon resets the connection on its 3rd frame write, once; the
    // client reconnects, resubmits and finishes byte-identically.
    Process daemon = startDaemon(
        dir, "fault.sock",
        {"--jobs", "2", "--fault", "serve.send:after=2:fail=econnreset"});
    RunResult faulted = dir.run(
        replayMcf({"--connect", "fault.sock", "--connect-timeout", "5000",
                   "--retries", "3", "--csv", "faulted.csv"}));
    ASSERT_EQ(faulted.exitCode, 0) << faulted;
    EXPECT_TRUE(sameFile(ref.dir / "direct.csv", dir / "faulted.csv"));
    // The daemon survived the reset: a clean follow-up request is served
    // and still byte-identical.
    RunResult clean = dir.run(
        replayMcf({"--connect", "fault.sock", "--csv", "clean_after.csv"}));
    ASSERT_EQ(clean.exitCode, 0) << clean;
    EXPECT_TRUE(sameFile(ref.dir / "direct.csv", dir / "clean_after.csv"));
    daemon.signal(SIGTERM);
    RunResult log = daemon.wait();
    // The resubmit is visible in the lifetime counters.
    EXPECT_FALSE(grep(log.err, R"(serve\.retries_served=[1-9])").empty())
        << log;
}

TEST(ToolFault, CachePublishEnospcFailsCleanAndARerunRepopulates)
{
    WorkDir dir;
    const Reference &ref = reference(dir);
    // Every atomic publish fails: the run still completes with a
    // byte-identical dump, leaving no record and no temp debris.
    RunResult nospc = dir.run(
        replayMcf({"--cache-dir", "faultcache", "--jobs", "2", "--csv",
                   "nospc.csv"}),
        {{"RSEP_FAULT", "cache.rename:fail=enospc:count=0"}});
    ASSERT_EQ(nospc.exitCode, 0) << nospc;
    EXPECT_TRUE(sameFile(ref.dir / "direct.csv", dir / "nospc.csv"));
    EXPECT_EQ(filesUnder(dir / "faultcache").size(), 0u);
    // An unfaulted rerun repopulates the cache.
    RunResult rerun = dir.run(replayMcf(
        {"--cache-dir", "faultcache", "--jobs", "2", "--csv", "/dev/null"}));
    ASSERT_EQ(rerun.exitCode, 0) << rerun;
    EXPECT_GT(filesUnder(dir / "faultcache", ".cell").size(), 0u);
}

TEST(ToolFault, TruncatedTraceDecodeIsACleanDiagnosticFailure)
{
    WorkDir dir;
    const Reference &ref = reference(dir);
    RunResult truncated =
        dir.run(replayMcf({"--jobs", "1", "--csv", "/dev/null"}),
                {{"RSEP_FAULT", "trace.decode:fail=truncate:bytes=120"}});
    EXPECT_NE(truncated.exitCode, 0) << truncated;
    EXPECT_FALSE(grep(truncated.err, "truncated|bad .* header").empty())
        << truncated;
    // A clean rerun still replays (no state was poisoned).
    RunResult clean =
        dir.run(replayMcf({"--jobs", "1", "--csv", "decode_clean.csv"}));
    ASSERT_EQ(clean.exitCode, 0) << clean;
    EXPECT_TRUE(sameFile(ref.dir / "direct.csv", dir / "decode_clean.csv"));
}

TEST(ToolFault, MissingDaemonExitsWithTheDaemonGoneCode)
{
    WorkDir dir;
    RunResult gone = dir.run(
        {"bench_fig4_speedup", "--scenario-file", ciSmoke(), "--workload",
         "mcf", "--connect", dir / "no-daemon.sock", "--retries", "1",
         "--csv", "/dev/null"});
    EXPECT_EQ(gone.exitCode, 3) << gone;
    EXPECT_TRUE(gone.err.find("is rsep_serve running") != std::string::npos)
        << gone;
}

} // namespace
} // namespace rsep::tooltest
