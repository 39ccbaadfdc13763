/**
 * @file
 * Tool tests of the warm daemon with the real binaries
 * (tests/tool_harness.hh): two clients sweep ci_smoke arms
 * concurrently against one rsep_serve, their merged dump equals a
 * direct run byte for byte, a second (warm) round is served entirely
 * from the daemon's result cache, and a sampled round, which bypasses
 * that cache, replays the decoded traces the first round left
 * resident. A Fig. 4 run through the daemon prints the same table,
 * dump and aliased and forked cells as the direct run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <sstream>

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
    RunResult clientMcf, clientGobmk, merge, warm, sampled, daemon;

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
        sampled = dir.run(replayArgs(
            "mcf,gobmk", {"--connect", "serve.sock", "--sample-every", "1000",
                          "--sample-dir", "samples", "--csv", "sampled.csv"}));
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

TEST(ToolServe, SampledRoundBypassesTheResultCacheWithTheSameDump)
{
    const Session &s = session();
    ASSERT_EQ(s.direct.exitCode, 0) << s.direct;
    ASSERT_EQ(s.sampled.exitCode, 0) << s.sampled;
    EXPECT_TRUE(sameFile(s.dir / "direct.csv", s.dir / "sampled.csv"));
    EXPECT_TRUE(s.sampled.err.find("done: 4 run, 0 cached") !=
                std::string::npos)
        << s.sampled;
    EXPECT_EQ(filesUnder(s.dir / "samples", ".rts").size(), 4u);
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
    EXPECT_EQ(n(1), 4u) << "requests";
    EXPECT_EQ(n(2), 0u) << "errors";
    // Round 1: 2 clients x 2 arms x 1 checkpoint; round 2 all cached;
    // the sampled round runs its 4 cells again.
    EXPECT_EQ(n(3), 8u) << "cells run";
    EXPECT_EQ(n(4), 4u) << "cache hits";
    // Round 1 decodes each trace once (its second arm is taken from the
    // first: DESIGN.md §20), so the hits are the sampled round's.
    EXPECT_GT(n(6), 0u) << "the decoded-trace cache never reused a trace";
}

/** The `[als]` and forked-cell progress lines of @p err, without their
 *  "(k/n)" counters, sorted: cells finish in any order. */
std::vector<std::string>
aliasLines(const std::string &err)
{
    std::vector<std::string> lines;
    std::istringstream is(err);
    for (std::string line; std::getline(is, line);) {
        if (!line.starts_with("[als]") &&
            line.find(" (forked from ") == std::string::npos)
            continue;
        size_t open = line.find(" (", line.find("ipc="));
        size_t close = line.find(')', open);
        lines.push_back(line.erase(open, close + 1 - open));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

TEST(ToolServe, Fig4ThroughTheDaemonTakesTheDirectRunsCells)
{
    // The Fig. 4 arms at a twentieth of their sizing, where shadows are
    // taken and retired shadows fork: through --connect the table and
    // the dump are the direct run's, and so are the cells taken from
    // an earlier arm and those forked from one.
    WorkDir dir;
    Env small{{"RSEP_SIM_SCALE", "0.05"}, {"RSEP_CHECKPOINTS", "1"}};
    RunResult direct = dir.run(
        {"bench_fig4_speedup", "--jobs", "2", "--csv", "direct.csv"}, small);
    ASSERT_EQ(direct.exitCode, 0) << direct;
    Process server = startDaemon(dir, "fig4.sock", {"--jobs", "2"});
    RunResult remote = dir.run(
        {"bench_fig4_speedup", "--connect", "fig4.sock", "--csv", "remote.csv"},
        small);
    server.signal(SIGTERM);
    RunResult daemon = server.wait();
    ASSERT_EQ(remote.exitCode, 0) << remote;
    EXPECT_EQ(daemon.exitCode, 0) << daemon;
    EXPECT_EQ(direct.out, remote.out);
    EXPECT_TRUE(sameFile(dir / "direct.csv", dir / "remote.csv"));
    std::vector<std::string> taken = aliasLines(direct.err);
    EXPECT_TRUE(direct.mentions(" (shadow)")) << direct;
    EXPECT_TRUE(direct.mentions(" (forked from ")) << direct;
    EXPECT_EQ(taken, aliasLines(remote.err)) << remote;
}

} // namespace
} // namespace rsep::tooltest
