/**
 * @file
 * Merge-toolchain tests: CSV dumps round-trip through the parser
 * byte-identically, a sharded-and-merged dump is byte-identical to the
 * unsharded one (the acceptance property of `rsep_merge`), any other
 * format is rejected naming its file, disjointness and completeness
 * violations are diagnosed, and the figure summary derives the paper's
 * bars + gmean rows.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/stat_merge.hh"

namespace rsep::sim
{
namespace
{

SimConfig
shrunk(SimConfig c)
{
    c.warmupInsts = 1'000;
    c.measureInsts = 3'000;
    c.checkpoints = 1;
    c.seed = 0x5eed;
    return c;
}

/** One tiny real matrix shared by the round-trip tests. */
struct Fixture
{
    std::vector<SimConfig> configs;
    std::vector<std::string> benches;
    std::vector<StatRow> rows;
    std::string csv;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        Fixture t;
        t.configs = {shrunk(findScenario("baseline")->config),
                     shrunk(findScenario("rsep")->config)};
        t.benches = {"hmmer", "mcf", "namd"};
        MatrixOptions opts;
        opts.jobs = 2;
        opts.progress = false;
        auto mrows = runMatrix(t.configs, t.benches, opts);
        t.rows = collectStatRows(t.configs, mrows);
        std::ostringstream c;
        CsvStatSink{}.write(c, t.rows);
        t.csv = c.str();
        return t;
    }();
    return f;
}

std::string
emitCsv(const std::vector<StatRow> &rows)
{
    std::ostringstream os;
    CsvStatSink{}.write(os, rows);
    return os.str();
}

TEST(StatMerge, CsvRoundTripIsByteIdentical)
{
    const Fixture &f = fixture();
    DumpParse p = parseCsvDump(f.csv, "fixture.csv");
    ASSERT_TRUE(p.ok()) << p.error;
    ASSERT_EQ(p.rows.size(), f.rows.size());
    canonicalizeStatRows(p.rows);
    EXPECT_EQ(emitCsv(p.rows), f.csv);
}

TEST(StatMerge, JsonDumpIsRejectedNamingTheFile)
{
    // The merge reads CSV only: a dump in another encoding (here a
    // JSON row array) fails with a diagnostic that names the file, so
    // rsep_merge exits 1 instead of merging rows from it.
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() /
         ("rsep-merge-test-" + std::to_string(::getpid()) + ".json"))
            .string();
    {
        std::ofstream os(path);
        os << "[\n  {\"benchmark\": \"mcf\", \"scenario\": \"rsep\", "
              "\"config_hash\": \"0123456789abcdef\", \"checkpoints\": 1, "
              "\"ipc_hmean\": 1.000000, \"counters\": {\"cycles\": 7}}\n]\n";
    }
    DumpParse p = parseDumpFile(path);
    fs::remove(path);
    EXPECT_FALSE(p.ok());
    EXPECT_TRUE(p.rows.empty());
    EXPECT_EQ(p.error.rfind(path + ": ", 0), 0u) << p.error;

    // A CSV dump at the same path parses through the same entry.
    {
        std::ofstream os(path);
        os << fixture().csv;
    }
    p = parseDumpFile(path);
    fs::remove(path);
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_EQ(p.rows.size(), fixture().rows.size());
}

TEST(StatMerge, ShardedPlusMergedEqualsUnshardedByteForByte)
{
    // The acceptance criterion, in-process: run the matrix as shards
    // 0/2 and 1/2, export each, merge, compare against the unsharded
    // dump.
    const Fixture &f = fixture();

    std::vector<std::vector<StatRow>> shards;
    std::vector<std::string> origins;
    for (unsigned i = 0; i < 2; ++i) {
        MatrixOptions opts;
        opts.jobs = 2;
        opts.progress = false;
        opts.shard = {i, 2};
        auto mrows = runMatrix(f.configs, f.benches, opts);
        std::vector<StatRow> rows = collectStatRows(f.configs, mrows);
        EXPECT_LT(rows.size(), f.rows.size())
            << "a shard must not hold the whole matrix";
        // Round-trip each shard through its on-disk format, as the
        // real flow does.
        std::ostringstream os;
        CsvStatSink{}.write(os, rows);
        DumpParse p =
            parseCsvDump(os.str(), "shard" + std::to_string(i));
        ASSERT_TRUE(p.ok()) << p.error;
        shards.push_back(std::move(p.rows));
        origins.push_back("shard" + std::to_string(i));
    }

    std::vector<StatRow> merged;
    std::string err = mergeStatRows(shards, origins, merged);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_TRUE(checkCompleteness(merged).empty());
    EXPECT_EQ(emitCsv(merged), f.csv);
}

TEST(StatMerge, DisjointnessViolationIsDiagnosed)
{
    const Fixture &f = fixture();
    std::vector<StatRow> merged;
    std::string err = mergeStatRows({f.rows, {f.rows.front()}},
                                    {"a.csv", "b.csv"}, merged);
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find("duplicate row"), std::string::npos);
    EXPECT_NE(err.find("a.csv"), std::string::npos);
    EXPECT_NE(err.find("b.csv"), std::string::npos);
}

TEST(StatMerge, CompletenessHolesAreDiagnosed)
{
    const Fixture &f = fixture();
    EXPECT_TRUE(checkCompleteness(f.rows).empty());

    std::vector<StatRow> holey = f.rows;
    holey.pop_back();
    std::string err = checkCompleteness(holey);
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find("missing cell"), std::string::npos);
}

TEST(StatMerge, ExpectedBenchmarkSetCatchesFullyMissingBenchmarks)
{
    // The derived rectangle cannot see a benchmark absent from EVERY
    // input (e.g. a forgotten shard dump): rows for "namd" gone
    // entirely still form a complete 2-bench rectangle.
    const Fixture &f = fixture();
    std::vector<StatRow> lost;
    for (const StatRow &r : f.rows)
        if (r.benchmark != "namd")
            lost.push_back(r);
    EXPECT_TRUE(checkCompleteness(lost).empty())
        << "derived check can't notice this; the expected set must";

    // The explicit expected set closes the gap...
    std::string err = checkCompleteness(lost, f.benches);
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find("namd"), std::string::npos);
    EXPECT_TRUE(checkCompleteness(f.rows, f.benches).empty());

    // ...and also flags benchmarks outside it (typo guard).
    err = checkCompleteness(f.rows, {"hmmer", "mcf"});
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find("unexpected benchmark"), std::string::npos);
}

TEST(StatMerge, SummarySkipsBenchmarksWithoutABaselineRow)
{
    // A partial merge where one benchmark has no baseline row must not
    // fabricate a 0.00% bar for it.
    const Fixture &f = fixture();
    std::vector<StatRow> partial;
    for (const StatRow &r : f.rows)
        if (!(r.benchmark == "mcf" && r.scenario == "baseline"))
            partial.push_back(r);

    std::ostringstream os;
    std::string err;
    ASSERT_TRUE(writeFigureSummary(os, partial, "baseline", &err)) << err;
    const std::string s = os.str();
    EXPECT_EQ(s.find("\nmcf,"), std::string::npos)
        << "no bar may be fabricated for mcf";
    EXPECT_NE(s.find("# warning: skipped 1 benchmark(s)"),
              std::string::npos);
    EXPECT_NE(s.find("mcf"), std::string::npos);
    EXPECT_NE(s.find("\nhmmer,rsep,"), std::string::npos)
        << "benchmarks with a baseline keep their bars";
}

TEST(StatMerge, QuotedFieldsSurviveTheCsvRoundTrip)
{
    StatRow row;
    row.benchmark = "we,ird\nbench";
    row.scenario = "quo\"ted";
    row.configHash = "0123456789abcdef";
    row.checkpoints = 1;
    row.ipcHmean = 1.25;
    row.counters = {{"cycles", 7}, {"weird,counter", 3}};
    std::vector<StatRow> rows = {row};
    canonicalizeStatRows(rows);
    std::string text = emitCsv(rows);

    DumpParse p = parseCsvDump(text, "quoted.csv");
    ASSERT_TRUE(p.ok()) << p.error;
    ASSERT_EQ(p.rows.size(), 1u);
    EXPECT_EQ(p.rows[0].benchmark, row.benchmark);
    EXPECT_EQ(p.rows[0].scenario, row.scenario);
    canonicalizeStatRows(p.rows);
    EXPECT_EQ(emitCsv(p.rows), text);
}

TEST(StatMerge, MalformedDumpsAreRejected)
{
    EXPECT_FALSE(parseCsvDump("", "e.csv").ok());
    EXPECT_FALSE(parseCsvDump("not,the,header\n1,2,3\n", "h.csv").ok());
    EXPECT_FALSE(
        parseCsvDump("benchmark,scenario,config_hash,checkpoints,"
                     "ipc_hmean\na,b,c,notanint,1.0\n",
                     "v.csv")
            .ok());
    // Quoting errors name the 1-based line and field; an unterminated
    // quote names where its field opened.
    const std::string header =
        "benchmark,scenario,config_hash,checkpoints,ipc_hmean\n";
    EXPECT_EQ(parseCsvDump(header + "a,b,c,1,1.0\na,b\"x,c,1,1.0\n", "q.csv")
                  .error,
              "q.csv: line 3, field 2: stray quote inside an unquoted field");
    EXPECT_EQ(parseCsvDump(header + "a,b,c,\"1,1.0\nd,e\n", "u.csv").error,
              "u.csv: line 2, field 4: unterminated quoted field");
}

TEST(StatMerge, UnknownTimingCountersFlagsRetiredKeys)
{
    // A --timings dump row from an older build: every key the current
    // RunTiming schema writes, a per-checkpoint wall time, one pipeline
    // counter, and timing.steal_window, which older dumps carry but
    // this schema no longer defines.
    StatRow row;
    row.benchmark = "mcf";
    row.scenario = "baseline";
    row.configHash = "0123456789abcdef";
    row.checkpoints = 1;
    row.ipcHmean = 1.0;
    std::vector<std::string> current;
    RunTiming t;
    visitStats(t, [&](const char *name, StatCounter &) {
        current.emplace_back(name);
        row.counters.emplace_back(name, 1);
    });
    ASSERT_FALSE(current.empty());
    row.counters.emplace_back("timing.phase0_wall_micros", 1);
    row.counters.emplace_back("timing.steal_window", 1);
    row.counters.emplace_back("cycles", 1);
    std::vector<StatRow> rows{row};
    canonicalizeStatRows(rows);
    DumpParse p = parseCsvDump(emitCsv(rows), "old.csv");
    ASSERT_TRUE(p.ok()) << p.error;

    EXPECT_EQ(unknownTimingCounters(p.rows),
              std::vector<std::string>{"timing.steal_window"});
    for (const std::string &name : current)
        EXPECT_TRUE(knownTimingCounter(name)) << name;
    EXPECT_TRUE(knownTimingCounter("timing.phase0_wall_micros"));
    EXPECT_FALSE(knownTimingCounter("cycles"));
}

TEST(StatMerge, FigureSummaryHasBarsAndGmeanRows)
{
    const Fixture &f = fixture();
    std::ostringstream os;
    std::string err;
    ASSERT_TRUE(writeFigureSummary(os, f.rows, "baseline", &err)) << err;
    const std::string s = os.str();

    // One bar row per (benchmark, non-baseline arm)...
    for (const std::string &bench : f.benches)
        EXPECT_NE(s.find("\n" + bench + ",rsep,"), std::string::npos)
            << s;
    // ...plus a gmean row per arm, and no bars for the baseline itself.
    EXPECT_NE(s.find("\ngmean,rsep,"), std::string::npos);
    EXPECT_EQ(s.find(",baseline,"), std::string::npos);

    // Unknown baseline is an error, not a zero-filled table.
    std::ostringstream bad;
    EXPECT_FALSE(writeFigureSummary(bad, f.rows, "nope", &err));
    EXPECT_NE(err.find("nope"), std::string::npos);
}

} // namespace
} // namespace rsep::sim
