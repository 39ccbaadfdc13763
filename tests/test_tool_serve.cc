/**
 * @file
 * Tool tests of the warm daemon with the real binaries
 * (tests/tool_harness.hh): two clients sweep ci_smoke arms
 * concurrently against one rsep_serve, their merged dump equals a
 * direct run byte for byte, and a second (warm) round is served
 * entirely from the daemon's resident caches: zero cells re-simulated,
 * decoded traces reused.
 */

#include <gtest/gtest.h>

#include <csignal>

#include "tool_harness.hh"

namespace rsep::tooltest
{
namespace
{

Args
replayArgs(const std::string &workloads, const Args &extra)
{
    return with({"bench_fig4_speedup", "--scenario-file", ciSmoke(),
                 "--workload", workloads, "--replay-trace", "traces"},
                extra);
}

/**
 * The whole session, run once: recorded traces, the direct reference
 * dump, a daemon serving a round of two concurrent clients and then a
 * warm round, and the daemon's shutdown summary. Each step is checked
 * by its own case below.
 */
struct Session
{
    WorkDir dir;
    RunResult record = dir.run({"bench_fig4_speedup", "--scenario-file",
                                ciSmoke(), "--workload", "mcf,gobmk",
                                "--record-trace", "traces", "--jobs", "2",
                                "--csv", "/dev/null"});
    RunResult direct = dir.run(
        replayArgs("mcf,gobmk", {"--jobs", "2", "--csv", "direct.csv"}));
    RunResult clientMcf, clientGobmk, merge, warm, daemon;

    Session()
    {
        Process server = startDaemon(
            dir, "serve.sock", {"--jobs", "2", "--cache-dir", "servecache"});
        Process mcf = dir.spawn(replayArgs(
            "mcf", {"--connect", "serve.sock", "--csv", "client_mcf.csv"}));
        Process gobmk = dir.spawn(replayArgs(
            "gobmk", {"--connect", "serve.sock", "--csv", "client_gobmk.csv"}));
        clientMcf = mcf.wait();
        clientGobmk = gobmk.wait();
        merge = dir.run({"rsep_merge", "--csv", "merged.csv",
                         "--expect-benchmarks", "mcf,gobmk", "client_mcf.csv",
                         "client_gobmk.csv"});
        warm = dir.run(replayArgs(
            "mcf,gobmk", {"--connect", "serve.sock", "--csv", "warm.csv"}));
        // sigwait-driven shutdown drains and prints the summary.
        server.signal(SIGTERM);
        daemon = server.wait();
    }
};

const Session &
session()
{
    static Session s;
    return s;
}

TEST(ToolServe, RecordTracesAndDirectReferenceRun)
{
    const Session &s = session();
    EXPECT_EQ(s.record.exitCode, 0) << s.record;
    EXPECT_EQ(s.direct.exitCode, 0) << s.direct;
}

TEST(ToolServe, TwoConcurrentClientsMergeIntoTheDirectDump)
{
    const Session &s = session();
    ASSERT_EQ(s.direct.exitCode, 0) << s.direct;
    ASSERT_EQ(s.clientMcf.exitCode, 0) << s.clientMcf;
    ASSERT_EQ(s.clientGobmk.exitCode, 0) << s.clientGobmk;
    ASSERT_EQ(s.merge.exitCode, 0) << s.merge;
    EXPECT_TRUE(sameFile(s.dir / "direct.csv", s.dir / "merged.csv"));
}

TEST(ToolServe, WarmSecondRoundIsServedFromResidentCaches)
{
    const Session &s = session();
    ASSERT_EQ(s.direct.exitCode, 0) << s.direct;
    ASSERT_EQ(s.warm.exitCode, 0) << s.warm;
    EXPECT_TRUE(sameFile(s.dir / "direct.csv", s.dir / "warm.csv"));
    EXPECT_TRUE(s.warm.err.find("[connect] done") != std::string::npos)
        << s.warm;
    // The whole round comes from the daemon's result cache.
    EXPECT_TRUE(s.warm.err.find("done: 0 run, 4 cached") != std::string::npos)
        << s.warm;
}

TEST(ToolServe, DaemonCountersProveTheCachesStayedWarm)
{
    const Session &s = session();
    EXPECT_EQ(s.daemon.exitCode, 0) << s.daemon;
    std::vector<std::string> m = grep(
        s.daemon.err, "served ([0-9]+) requests \\(([0-9]+) errors\\): "
                      "([0-9]+) cells run, ([0-9]+) cache hits, "
                      "([0-9]+) batched; trace decode ([0-9]+) hits? / "
                      "([0-9]+) miss");
    ASSERT_EQ(m.size(), 8u) << s.daemon;
    auto n = [&](size_t i) { return std::stoull(m[i]); };
    EXPECT_EQ(n(1), 3u) << "requests";
    EXPECT_EQ(n(2), 0u) << "errors";
    // Round 1: 2 clients x 2 arms x 1 checkpoint; round 2 all cached.
    EXPECT_EQ(n(3), 4u) << "cells run";
    EXPECT_EQ(n(4), 4u) << "cache hits";
    EXPECT_GT(n(6), 0u) << "the decoded-trace cache never reused a trace";
}

} // namespace
} // namespace rsep::tooltest
