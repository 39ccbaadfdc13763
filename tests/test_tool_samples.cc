/**
 * @file
 * Tool tests of sampling with the built binaries
 * (tests/tool_harness.hh):
 *
 *  - a sampled ci_smoke run writes one schema-v2 `.rts` per cell and
 *    nothing else, and `rsep_samples info|summarize|merge` read them;
 *  - the same run through an rsep_serve daemon writes identical files;
 *  - every engine slot's summed sample deltas equal the dump's
 *    engine.* counters;
 *  - `rsep_samples diff` exits 0/1/2 for identical/divergent/unalignable
 *    series, and `dump` renders a cell exactly as `merge` renders its
 *    rows.
 */

#include <gtest/gtest.h>

#include <array>
#include <csignal>
#include <set>

#include "sim/sample_io.hh"
#include "sim/stat_merge.hh"
#include "tool_harness.hh"

namespace rsep::tooltest
{
namespace
{

const Args smokeArgs{"bench_fig4_speedup", "--scenario-file", ciSmoke(),
                     "--workload", "mcf,hmmer,xalancbmk", "--sample-every",
                     "5000"};
/** Between them these two arms register all six engines (on mcf the
 *  rsep, dvtage and oracle-eq slots see activity). */
const Args engineArgs{"bench_fig4_speedup", "--scenario",
                      "rsep+vpred+zp,rsep-oracle", "--workload", "mcf",
                      "--sample-every", "5000"};

/** The direct sampled runs and their merged timelines, made once. */
struct Timelines
{
    WorkDir dir;
    RunResult smoke = dir.run(with(smokeArgs, {"--sample-dir", "samples"}));
    RunResult engines = dir.run(
        with(engineArgs, {"--sample-dir", "eng_samples", "--csv", "eng.csv"}));
    RunResult merged, engMerged;

    Timelines()
    {
        merged = dir.run(with({"rsep_samples", "merge", "--csv",
                               "timeline.csv"},
                              filesUnder(dir / "samples", ".rts")));
        engMerged = dir.run(with({"rsep_samples", "merge", "--csv",
                                  "eng_timeline.csv"},
                                 filesUnder(dir / "eng_samples", ".rts")));
    }
};

const Timelines &
timelines()
{
    static Timelines t;
    return t;
}

TEST(ToolSamples, SampledRunWritesOneSeriesPerCell)
{
    const Timelines &t = timelines();
    ASSERT_EQ(t.smoke.exitCode, 0) << t.smoke;
    ASSERT_EQ(t.engines.exitCode, 0) << t.engines;
    ASSERT_EQ(t.merged.exitCode, 0) << t.merged;
    ASSERT_EQ(t.engMerged.exitCode, 0) << t.engMerged;

    // 3 workloads x 2 arms x 1 checkpoint, each schema v2.
    std::vector<std::string> rts = filesUnder(t.dir / "samples", ".rts");
    EXPECT_EQ(rts.size(), 6u);
    for (const std::string &path : rts) {
        EXPECT_TRUE(readFile(path).starts_with("rsep-samples 2\n")) << path;
        sim::SamplesParse p = sim::parseSamplesFile(path);
        EXPECT_TRUE(p.ok()) << p.error;
    }
    WorkDir dir;
    for (const char *command : {"info", "summarize"}) {
        RunResult r = dir.run(with({"rsep_samples", command}, rts));
        EXPECT_EQ(r.exitCode, 0) << r;
    }

    auto rows = readPlainCsv(t.dir / "timeline.csv");
    ASSERT_FALSE(rows.empty()) << "merged timeline is empty";
    std::set<std::string> cells;
    for (const auto &row : rows) {
        cells.insert(row.at("benchmark") + "/" + row.at("scenario") + "/" +
                     row.at("phase"));
        EXPECT_GT(std::stoull(row.at("cycle")), 0u);
    }
    EXPECT_EQ(cells.size(), 6u);
}

TEST(ToolSamples, DaemonRunWritesIdenticalSeries)
{
    const Timelines &t = timelines();
    ASSERT_EQ(t.smoke.exitCode, 0) << t.smoke;
    ASSERT_EQ(t.engines.exitCode, 0) << t.engines;
    WorkDir dir;
    Process daemon = startDaemon(dir, "s.sock", {"--jobs", "2"});
    Args connect{"--connect", "s.sock", "--connect-timeout", "5000"};
    RunResult smoke = dir.run(
        with(with(smokeArgs, connect), {"--sample-dir", "samples_remote"}));
    ASSERT_EQ(smoke.exitCode, 0) << smoke;
    EXPECT_TRUE(sameTree(t.dir / "samples", dir / "samples_remote"));
    RunResult engines =
        dir.run(with(with(engineArgs, connect),
                     {"--sample-dir", "eng_samples_remote", "--csv",
                      "eng_remote.csv"}));
    ASSERT_EQ(engines.exitCode, 0) << engines;
    EXPECT_TRUE(sameTree(t.dir / "eng_samples", dir / "eng_samples_remote"));
    EXPECT_TRUE(sameFile(t.dir / "eng.csv", dir / "eng_remote.csv"));
    daemon.signal(SIGTERM);
    RunResult stopped = daemon.wait();
    EXPECT_EQ(stopped.exitCode, 0) << stopped;
}

TEST(ToolSamples, EngineSlotDeltasSumToTheDumpCounters)
{
    const Timelines &t = timelines();
    ASSERT_EQ(t.engines.exitCode, 0) << t.engines;
    ASSERT_EQ(t.engMerged.exitCode, 0) << t.engMerged;
    // Slot -> (coverage, correct, mispredict) counters; each role is a
    // sum of engine.* counters, an absent counter reading 0.
    using Names = std::vector<std::string>;
    const std::map<std::string, std::array<Names, 3>> roles = {
        {"zero_idiom", {Names{"zero-idiom.eliminated"}, Names{}, Names{}}},
        {"move_elim", {Names{"move-elim.eliminated"}, Names{}, Names{}}},
        {"zero_pred",
         {Names{"zero-pred.predictions"}, Names{"zero-pred.correct"},
          Names{"zero-pred.mispredicts"}}},
        {"oracle_eq",
         {Names{"oracle-eq.shared"}, Names{"oracle-eq.shared"}, Names{}}},
        {"rsep",
         {Names{"rsep.shared", "rsep.mispredicts"}, Names{"rsep.shared"},
          Names{"rsep.mispredicts"}}},
        {"dvtage",
         {Names{"dvtage.predicted"}, Names{"dvtage.correct"},
          Names{"dvtage.mispredicts"}}},
    };
    const char *suffixes[3] = {"_coverage", "_correct", "_mispredict"};

    sim::DumpParse dump = sim::parseDumpFile(t.dir / "eng.csv");
    ASSERT_TRUE(dump.ok()) << dump.error;
    std::map<std::string, std::map<std::string, u64>> sums; // cell -> col.
    for (const auto &row : readPlainCsv(t.dir / "eng_timeline.csv")) {
        auto &acc = sums[row.at("benchmark") + "/" + row.at("scenario")];
        for (const auto &[column, value] : row)
            for (const char *suffix : suffixes)
                if (column.ends_with(suffix))
                    acc[column] += std::stoull(value);
    }
    std::set<std::string> dump_cells;
    for (const sim::StatRow &row : dump.rows)
        dump_cells.insert(row.benchmark + "/" + row.scenario);
    ASSERT_EQ(dump_cells.size(), 2u);
    std::set<std::string> sum_cells;
    for (const auto &[cell, acc] : sums)
        sum_cells.insert(cell);
    ASSERT_EQ(sum_cells, dump_cells);

    std::set<std::string> active;
    for (const sim::StatRow &row : dump.rows) {
        auto counter = [&](const std::string &name) -> u64 {
            for (const auto &[key, value] : row.counters)
                if (key == "engine." + name)
                    return value;
            return 0;
        };
        const auto &acc = sums[row.benchmark + "/" + row.scenario];
        for (const auto &[slot, names] : roles)
            for (size_t role = 0; role < 3; ++role) {
                u64 want = 0;
                for (const std::string &name : names[role])
                    want += counter(name);
                std::string column = slot + suffixes[role];
                ASSERT_TRUE(acc.count(column)) << column;
                EXPECT_EQ(acc.at(column), want)
                    << row.benchmark << "/" << row.scenario << " " << column;
                if (acc.at(column))
                    active.insert(slot);
            }
    }
    for (const char *slot : {"oracle_eq", "rsep", "dvtage"})
        EXPECT_TRUE(active.count(slot)) << slot << " saw no activity";
}

TEST(ToolSamples, OnlySeriesFilesAndDiffAndDumpAgreeWithMerge)
{
    const Timelines &t = timelines();
    ASSERT_EQ(t.smoke.exitCode, 0) << t.smoke;
    ASSERT_EQ(t.merged.exitCode, 0) << t.merged;
    // A run writes one .rts per cell and nothing else.
    for (const auto &entry : fs::directory_iterator(t.dir / "samples"))
        EXPECT_EQ(entry.path().extension().string(), ".rts") << entry.path();
    // The mcf cell of each ci_smoke arm.
    std::string base, rsep;
    for (const std::string &path : filesUnder(t.dir / "samples", ".rts")) {
        sim::SamplesParse p = sim::parseSamplesFile(path);
        if (p.header.workload != "mcf")
            continue;
        (p.header.scenario == "smoke-baseline" ? base : rsep) = path;
    }
    ASSERT_FALSE(base.empty());
    ASSERT_FALSE(rsep.empty());

    WorkDir dir;
    auto diff = [&](const Args &files) {
        return dir.run(with({"rsep_samples", "diff"}, files));
    };
    RunResult same = diff({base, base});
    EXPECT_EQ(same.exitCode, 0) << same;
    RunResult divergent = diff({base, rsep});
    EXPECT_EQ(divergent.exitCode, 1) << divergent;
    RunResult one = diff({base});
    EXPECT_EQ(one.exitCode, 2) << one;
    RunResult other_period = dir.run(
        {"bench_fig4_speedup", "--scenario-file", ciSmoke(), "--workload",
         "mcf", "--sample-every", "4000", "--sample-dir", "samples_4k"});
    ASSERT_EQ(other_period.exitCode, 0) << other_period;
    RunResult unaligned = diff(
        {base, dir / ("samples_4k/" + fs::path(base).filename().string())});
    EXPECT_EQ(unaligned.exitCode, 2) << unaligned;

    // dump renders a cell exactly as merge renders its rows.
    RunResult dumped = dir.run({"rsep_samples", "dump", base});
    ASSERT_EQ(dumped.exitCode, 0) << dumped;
    std::istringstream merged(readFile(t.dir / "timeline.csv"));
    std::string line, want;
    std::getline(merged, line);
    want = line + "\n";
    while (std::getline(merged, line))
        if (line.starts_with("mcf,smoke-baseline,"))
            want += line + "\n";
    EXPECT_EQ(dumped.out, want);
}

} // namespace
} // namespace rsep::tooltest
