/**
 * @file
 * Tool tests over the built drivers, rsep_merge and the command-line
 * front end (tests/tool_harness.hh runs each binary in a private
 * directory):
 *
 *  - the ci_smoke sweep exports every cell with per-engine counters;
 *  - one run sizing, one arm path and one grammar across drivers:
 *    registry arms, file arms and the default environment run the
 *    same cells, unrunnable sizes warn or are rejected, the ablation
 *    sweep honours --seed and --workload, and flags that would be
 *    silent no-ops are usage errors (exit 2);
 *  - two shard processes sharing one cell cache merge back into the
 *    unsharded dump byte for byte, and a missing shard fails the merge;
 *  - a warm rerun simulates zero cells, corrupted cells are
 *    quarantined and re-simulated, and cache GC prunes only a retired
 *    arm.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "sim/stat_merge.hh"
#include "tool_harness.hh"

namespace rsep::tooltest
{
namespace
{

/** The unsharded ci_smoke reference dump and two shard processes
 *  filling one shared cell cache, run once per test binary. */
struct Sweep
{
    WorkDir dir;
    RunResult full = dir.run({"bench_fig4_speedup", "--scenario-file",
                              ciSmoke(), "--csv", "full.csv", "--jobs",
                              "2"});
    RunResult shard0, shard1;

    Sweep()
    {
        auto shard = [&](const std::string &i) {
            return dir.spawn({"bench_fig4_speedup", "--scenario-file",
                              ciSmoke(), "--shard", i + "/2", "--cache-dir",
                              "cellcache", "--csv", "shard" + i + ".csv",
                              "--jobs", "2"});
        };
        Process p0 = shard("0"), p1 = shard("1");
        shard0 = p0.wait();
        shard1 = p1.wait();
    }
};

const Sweep &
sweep()
{
    static Sweep s;
    return s;
}

/** A private copy of the shards' cell cache, for cases that add to or
 *  damage it. */
std::string
copyCellCache(const WorkDir &dir)
{
    const Sweep &s = sweep();
    EXPECT_EQ(s.shard0.exitCode, 0) << s.shard0;
    EXPECT_EQ(s.shard1.exitCode, 0) << s.shard1;
    fs::copy(s.dir / "cellcache", dir / "cellcache",
             fs::copy_options::recursive);
    return dir / "cellcache";
}

/** The baseline mcf cell at the default sizing, run once. */
struct DefaultSizing
{
    WorkDir dir;
    RunResult run = dir.run({"bench_fig4_speedup", "--scenario",
                             "baseline", "--workload", "mcf", "--csv",
                             "sizing_registry.csv", "--jobs", "2"});
};

const DefaultSizing &
defaultSizing()
{
    static DefaultSizing s;
    return s;
}

TEST(ToolScenarioSmoke, DumpHasEveryCellWithPerEngineCounters)
{
    WorkDir dir;
    RunResult list = dir.run({"bench_fig4_speedup", "--list-scenarios"});
    EXPECT_EQ(list.exitCode, 0) << list;

    const Sweep &s = sweep();
    ASSERT_EQ(s.full.exitCode, 0) << s.full;
    sim::DumpParse dump = sim::parseDumpFile(s.dir / "full.csv");
    ASSERT_TRUE(dump.ok()) << dump.error;
    ASSERT_EQ(dump.rows.size(), 58u); // 29 workloads x 2 arms.
    bool engine_counter = false;
    for (const auto &[name, value] : dump.rows[1].counters)
        engine_counter = engine_counter || name.starts_with("engine.rsep.");
    EXPECT_TRUE(engine_counter) << "missing per-engine counters";
}

// ------------------------------------------------------------ front end

TEST(ToolFrontEnd, OneRunSizingForRegistryFileAndEnvironmentArms)
{
    const DefaultSizing &registry = defaultSizing();
    ASSERT_EQ(registry.run.exitCode, 0) << registry.run;
    WorkDir dir;
    writeFile(dir / "one_arm.scn",
              "[scenario]\nname = baseline\nbase = baseline\n");
    RunResult file = dir.run({"bench_fig4_speedup", "--scenario-file",
                              "one_arm.scn", "--workload", "mcf", "--csv",
                              "sizing_file.csv", "--jobs", "2"});
    ASSERT_EQ(file.exitCode, 0) << file;
    RunResult env = dir.run({"bench_fig4_speedup", "--scenario", "baseline",
                             "--workload", "mcf", "--csv", "sizing_env.csv",
                             "--jobs", "2"},
                            {{"RSEP_SIM_SCALE", "1"}, {"RSEP_CHECKPOINTS", "2"}});
    ASSERT_EQ(env.exitCode, 0) << env;
    EXPECT_TRUE(sameFile(registry.dir / "sizing_registry.csv",
                         dir / "sizing_file.csv"));
    EXPECT_TRUE(sameFile(registry.dir / "sizing_registry.csv",
                         dir / "sizing_env.csv"));
}

TEST(ToolFrontEnd, SizingReachesFileArmsWithoutBase)
{
    WorkDir dir;
    writeFile(dir / "no_base.scn", "[scenario]\nname = baseline\n");
    Env small{{"RSEP_SIM_SCALE", "0.01"}, {"RSEP_CHECKPOINTS", "1"}};
    RunResult registry = dir.run(
        {"bench_fig4_speedup", "--scenario", "baseline", "--workload", "mcf",
         "--csv", "small_registry.csv", "--jobs", "2"},
        small);
    ASSERT_EQ(registry.exitCode, 0) << registry;
    RunResult file = dir.run({"bench_fig4_speedup", "--scenario-file",
                              "no_base.scn", "--workload", "mcf", "--csv",
                              "small_file.csv", "--jobs", "2"},
                             small);
    ASSERT_EQ(file.exitCode, 0) << file;
    EXPECT_TRUE(sameFile(dir / "small_registry.csv", dir / "small_file.csv"));
}

TEST(ToolFrontEnd, UnrunnableSizesWarnOrAreRejected)
{
    // The environment warns and keeps the default sizing ...
    const DefaultSizing &registry = defaultSizing();
    ASSERT_EQ(registry.run.exitCode, 0) << registry.run;
    WorkDir dir;
    RunResult negative = dir.run(
        {"bench_fig4_speedup", "--scenario", "baseline", "--workload", "mcf",
         "--csv", "sizing_negative.csv", "--jobs", "2"},
        {{"RSEP_SIM_SCALE", "-1"}}, std::chrono::seconds(120));
    ASSERT_EQ(negative.exitCode, 0) << negative;
    EXPECT_TRUE(sameFile(registry.dir / "sizing_registry.csv",
                         dir / "sizing_negative.csv"));
    // ... a file is rejected at the offending line.
    writeFile(dir / "zero_checkpoints.scn",
              "[scenario]\nname = none\n[sim]\ncheckpoints = 0\n");
    RunResult zero = dir.run({"bench_fig4_speedup", "--scenario-file",
                              "zero_checkpoints.scn", "--workload", "mcf",
                              "--csv", "x.csv"});
    EXPECT_EQ(zero.exitCode, 2) << zero;
}

TEST(ToolFrontEnd, AblationSweepHonoursSeedAndWorkload)
{
    WorkDir dir;
    Env small{{"RSEP_SIM_SCALE", "0.01"}, {"RSEP_CHECKPOINTS", "1"}};
    RunResult plain_run = dir.run({"bench_ablation_structures", "--workload",
                                   "gcc", "--csv", "ablation.csv", "--jobs",
                                   "2"},
                                  small);
    ASSERT_EQ(plain_run.exitCode, 0) << plain_run;
    RunResult seeded_run = dir.run(
        {"bench_ablation_structures", "--workload", "gcc", "--seed", "7",
         "--csv", "ablation_seed.csv", "--jobs", "2"},
        small);
    ASSERT_EQ(seeded_run.exitCode, 0) << seeded_run;

    sim::DumpParse plain = sim::parseDumpFile(dir / "ablation.csv");
    sim::DumpParse seeded = sim::parseDumpFile(dir / "ablation_seed.csv");
    ASSERT_TRUE(plain.ok()) << plain.error;
    ASSERT_TRUE(seeded.ok()) << seeded.error;
    ASSERT_FALSE(plain.rows.empty());
    ASSERT_EQ(plain.rows.size(), seeded.rows.size());
    for (size_t i = 0; i < plain.rows.size(); ++i) {
        const sim::StatRow &a = plain.rows[i], &b = seeded.rows[i];
        EXPECT_EQ(a.benchmark, "gcc");
        EXPECT_EQ(b.benchmark, "gcc");
        EXPECT_EQ(a.scenario, b.scenario);
        EXPECT_NE(a.configHash, b.configHash) << a.scenario;
    }
}

TEST(ToolFrontEnd, AblationSweepConnectsLikeEveryMatrixDriver)
{
    WorkDir dir;
    RunResult r = dir.run({"bench_ablation_structures", "--connect",
                           "missing.sock", "--retries", "0", "--csv",
                           "/dev/null"});
    EXPECT_EQ(r.exitCode, 3) << r;
}

TEST(ToolFrontEnd, RepeatedArmLabelsAreUsageErrors)
{
    // Rows, tables and the merge key are by arm label: a label given
    // twice, by flag or by file, stops the driver before it runs.
    WorkDir dir;
    Env small{{"RSEP_SIM_SCALE", "0.05"}};
    RunResult flag = dir.run({"bench_fig4_speedup", "--scenario",
                              "baseline,rsep,rsep", "--csv", "d.csv"},
                             small);
    EXPECT_EQ(flag.exitCode, 2) << flag;
    EXPECT_TRUE(flag.mentions("label 'rsep'")) << flag;
    EXPECT_FALSE(flag.mentions("[matrix]")) << flag;
    EXPECT_FALSE(fs::exists(dir / "d.csv"));

    writeFile(dir / "two_a.scn", "[scenario]\nname = a\nbase = baseline\n"
                                 "[scenario]\nname = a\nbase = rsep\n");
    RunResult file = dir.run({"bench_fig4_speedup", "--scenario-file",
                              "two_a.scn", "--csv", "a.csv"},
                             small);
    EXPECT_EQ(file.exitCode, 2) << file;
    EXPECT_TRUE(file.mentions("label 'a'")) << file;
    EXPECT_FALSE(file.mentions("[matrix]")) << file;
    EXPECT_FALSE(fs::exists(dir / "a.csv"));
}

TEST(ToolFrontEnd, RepeatedWorkloadsAreUsageErrors)
{
    // Rows and the merge key are by workload: a workload given twice,
    // in one list or across --workload and --workload-file, stops the
    // driver before it runs.
    WorkDir dir;
    Env small{{"RSEP_SIM_SCALE", "0.05"}};
    RunResult flag = dir.run({"bench_fig4_speedup", "--scenario",
                              "baseline,rsep", "--workload", "mcf,mcf",
                              "--csv", "d.csv"},
                             small);
    EXPECT_EQ(flag.exitCode, 2) << flag;
    EXPECT_TRUE(flag.mentions("workload 'mcf'")) << flag;
    EXPECT_FALSE(flag.mentions("[matrix]")) << flag;
    EXPECT_FALSE(fs::exists(dir / "d.csv"));

    writeFile(dir / "chase.scn",
              "[workload]\nname = chase\nbase = mcf\nnodes = 64\n");
    RunResult mixed = dir.run({"bench_fig4_speedup", "--scenario",
                               "baseline", "--workload-file", "chase.scn",
                               "--workload", "chase", "--csv", "c.csv"},
                              small);
    EXPECT_EQ(mixed.exitCode, 2) << mixed;
    EXPECT_TRUE(mixed.mentions("workload 'chase@")) << mixed;
    EXPECT_FALSE(mixed.mentions("[matrix]")) << mixed;
    EXPECT_FALSE(fs::exists(dir / "c.csv"));
}

TEST(ToolFrontEnd, MalformedNumbersAndNonMatrixFlagsAreUsageErrors)
{
    WorkDir dir;
    RunResult number = dir.run({"rsep_trace", "dump", "--limit=-1", "x.rtr"});
    EXPECT_EQ(number.exitCode, 2) << number;
    RunResult matrix_flag = dir.run({"bench_table1_config", "--csv", "x.csv"});
    EXPECT_EQ(matrix_flag.exitCode, 2) << matrix_flag;
}

TEST(ToolFrontEnd, FlagsThatWouldBeSilentNoOpsAreUsageErrors)
{
    const Sweep &s = sweep();
    ASSERT_EQ(s.full.exitCode, 0) << s.full;
    const std::string dump = s.dir / "full.csv";
    WorkDir dir;
    // Merge outputs under --gc.
    for (Args flag : {Args{"--csv", "foo.csv"}, Args{"--summary", "s.csv"},
                      Args{"--baseline", "baseline"},
                      Args{"--expect-benchmarks", "suite"},
                      Args{"--allow-partial"}}) {
        RunResult r =
            dir.run(with({"rsep_merge", "--gc", "--cache-dir", "gc_unused"},
                         flag));
        EXPECT_EQ(r.exitCode, 2) << r;
    }
    EXPECT_FALSE(fs::exists(dir / "foo.csv"));
    EXPECT_FALSE(fs::exists(dir / "s.csv"));
    EXPECT_FALSE(fs::exists(dir / "gc_unused"));
    // --baseline without --summary, and empty name lists.
    for (Args argv : {Args{"rsep_merge", "--baseline", "baseline", dump},
                      Args{"rsep_merge", "--expect-benchmarks", ",", dump},
                      Args{"rsep_merge", "--gc", "--cache-dir", "gc_unused",
                           "--scenario", ","}}) {
        RunResult r = dir.run(argv);
        EXPECT_EQ(r.exitCode, 2) << r;
    }
    // --sample-dir without --sample-every.
    RunResult samples = dir.run({"bench_fig4_speedup", "--scenario",
                                 "baseline", "--workload", "mcf",
                                 "--sample-dir", "unused_samples"});
    EXPECT_EQ(samples.exitCode, 2) << samples;
    EXPECT_FALSE(fs::exists(dir / "unused_samples"));
}

TEST(ToolFrontEnd, JsonIsUnknownAndAJsonDumpIsRejectedByName)
{
    const Sweep &s = sweep();
    ASSERT_EQ(s.full.exitCode, 0) << s.full;
    WorkDir dir;
    RunResult driver = dir.run({"bench_fig4_speedup", "--json", "x.json"});
    EXPECT_EQ(driver.exitCode, 2) << driver;
    RunResult merge =
        dir.run({"rsep_merge", "--json", "x.json", s.dir / "full.csv"});
    EXPECT_EQ(merge.exitCode, 2) << merge;
    writeFile(dir / "old_dump.json", "[\n]\n");
    RunResult old = dir.run({"rsep_merge", "old_dump.json"});
    EXPECT_EQ(old.exitCode, 1) << old;
    EXPECT_TRUE(old.mentions("old_dump.json")) << old;
}

TEST(ToolFrontEnd, SubcommandOptionsThatDoNotApplyAreUsageErrors)
{
    // One real trace and one real sample series, so only the option
    // can make a command fail.
    WorkDir dir;
    RunResult rec = dir.run(
        {"bench_fig4_speedup", "--scenario", "baseline", "--workload", "mcf",
         "--record-trace", "traces", "--sample-every", "5000",
         "--sample-dir", "samples", "--csv", "/dev/null"},
        {{"RSEP_SIM_SCALE", "0.01"}, {"RSEP_CHECKPOINTS", "1"}});
    ASSERT_EQ(rec.exitCode, 0) << rec;
    std::vector<std::string> rtr = filesUnder(dir / "traces", ".rtr");
    std::vector<std::string> rts = filesUnder(dir / "samples", ".rts");
    ASSERT_EQ(rtr.size(), 1u);
    ASSERT_EQ(rts.size(), 1u);

    for (Args argv : {
             Args{"rsep_samples", "dump", "--csv", "out.csv", rts[0]},
             Args{"rsep_samples", "info", "--csv", "out.csv", rts[0]},
             Args{"rsep_samples", "summarize", "--csv", "out.csv", rts[0]},
             Args{"rsep_samples", "diff", "--csv", "out.csv", rts[0],
                  rts[0]},
             Args{"rsep_samples", "merge", "--limit", "1", "--csv",
                  "out.csv", rts[0]},
             Args{"rsep_samples", "summarize", "--limit", "1", rts[0]},
             Args{"rsep_samples", "info", "--limit", "1", rts[0]},
             Args{"rsep_trace", "info", "--deep", rtr[0]},
             Args{"rsep_trace", "dump", "--deep", rtr[0]},
             Args{"rsep_trace", "validate", "--limit", "3", rtr[0]},
             Args{"rsep_trace", "info", "--limit", "3", rtr[0]},
             Args{"rsep_trace", "dump", "--bench-decode", "3", rtr[0]},
         }) {
        RunResult r = dir.run(argv);
        EXPECT_EQ(r.exitCode, 2) << r;
    }
    EXPECT_FALSE(fs::exists(dir / "out.csv"));
    // The same options where they apply.
    for (Args argv : {
             Args{"rsep_samples", "dump", "--limit", "1", rts[0]},
             Args{"rsep_samples", "diff", "--limit", "1", rts[0], rts[0]},
             Args{"rsep_trace", "dump", "--limit", "3", rtr[0]},
             Args{"rsep_trace", "validate", "--deep", rtr[0]},
         }) {
        RunResult r = dir.run(argv);
        EXPECT_EQ(r.exitCode, 0) << r;
    }
}

// ------------------------------------------------------------- figures

/** (row, arm) -> percent, '%' dropped. */
using Bars = std::map<std::pair<std::string, std::string>, std::string>;

/** The first speedup table in a driver's stdout: from its `benchmark`
 *  header through its `gmean` row. */
Bars
printedBars(const std::string &out)
{
    Bars bars;
    std::vector<std::string> arms;
    std::istringstream is(out);
    for (std::string line; std::getline(is, line);) {
        std::istringstream ls(line);
        std::vector<std::string> words;
        for (std::string w; ls >> w;)
            words.push_back(w);
        if (arms.empty()) {
            if (!words.empty() && words[0] == "benchmark")
                arms.assign(words.begin() + 1, words.end());
            continue;
        }
        if (words.size() != arms.size() + 1) {
            ADD_FAILURE() << "not a table row: " << line;
            break;
        }
        for (size_t a = 0; a < arms.size(); ++a) {
            std::string pct = words[a + 1];
            if (pct.ends_with('%'))
                pct.pop_back();
            bars[{words[0], arms[a]}] = pct;
        }
        if (words[0] == "gmean")
            break;
    }
    return bars;
}

/** The bar and gmean rows of an `rsep_merge --summary` CSV. */
Bars
summaryBars(const std::string &csv)
{
    Bars bars;
    std::istringstream is(csv);
    for (std::string line; std::getline(is, line);) {
        if (line.starts_with("#") || line.starts_with("benchmark,"))
            continue;
        std::vector<std::string> f;
        std::stringstream ls(line);
        for (std::string cell; std::getline(ls, cell, ',');)
            f.push_back(cell);
        if (f.size() != 5) {
            ADD_FAILURE() << "not a summary row: " << line;
            continue;
        }
        bars[{f[0], f[1]}] = f[4];
    }
    return bars;
}

TEST(ToolFigures, DriverTablesAgreeWithTheMergeSummaryOfTheirDump)
{
    // A bespoke report (Fig. 6) and the generic scenario path (the
    // ci_smoke sweep): every printed bar and gmean is the summary's,
    // digit for digit. Both sides compute each IPC from the row's
    // integer counters, which the dump holds exactly.
    const Sweep &s = sweep();
    ASSERT_EQ(s.full.exitCode, 0) << s.full;
    WorkDir dir;
    RunResult fig6 = dir.run(
        {"bench_fig6_validation", "--csv", "fig6.csv", "--jobs", "2"},
        {{"RSEP_SIM_SCALE", "0.01"}, {"RSEP_CHECKPOINTS", "1"}});
    ASSERT_EQ(fig6.exitCode, 0) << fig6;

    struct Case
    {
        std::string out, dump;
        size_t arms; // besides the baseline.
    };
    for (const Case &c : {Case{fig6.out, dir / "fig6.csv", 5},
                          Case{s.full.out, s.dir / "full.csv", 1}}) {
        RunResult summary = dir.run({"rsep_merge", "--summary", "-", c.dump});
        ASSERT_EQ(summary.exitCode, 0) << summary;
        Bars printed = printedBars(c.out), merged = summaryBars(summary.out);
        EXPECT_EQ(printed.size(), (29 + 1) * c.arms) << c.out;
        EXPECT_EQ(printed.size(), merged.size()) << c.out << summary;
        for (const auto &[key, pct] : printed) {
            auto it = merged.find(key);
            if (it == merged.end()) {
                ADD_FAILURE() << key.first << "/" << key.second
                              << " is not in the summary" << summary;
                continue;
            }
            EXPECT_EQ(pct, it->second)
                << key.first << "/" << key.second << c.out << summary;
        }
    }
}

// ------------------------------------------------------ shard and merge

TEST(ToolShard, ShardedRunsMergeIntoTheUnshardedDump)
{
    const Sweep &s = sweep();
    ASSERT_EQ(s.full.exitCode, 0) << s.full;
    ASSERT_EQ(s.shard0.exitCode, 0) << s.shard0;
    ASSERT_EQ(s.shard1.exitCode, 0) << s.shard1;
    WorkDir dir;
    RunResult merge = dir.run({"rsep_merge", "--csv", "merged.csv",
                               "--summary", "summary.csv",
                               "--expect-benchmarks", "suite",
                               s.dir / "shard0.csv", s.dir / "shard1.csv"});
    ASSERT_EQ(merge.exitCode, 0) << merge;
    EXPECT_TRUE(sameFile(s.dir / "full.csv", dir / "merged.csv"));
    EXPECT_FALSE(grep(readFile(dir / "summary.csv"), "^gmean,smoke-rsep,")
                     .empty());
}

TEST(ToolShard, MergeOfOneShardFailsNamingTheMissingCells)
{
    const Sweep &s = sweep();
    ASSERT_EQ(s.shard0.exitCode, 0) << s.shard0;
    WorkDir dir;
    RunResult r = dir.run({"rsep_merge", "--expect-benchmarks", "suite",
                           s.dir / "shard0.csv"});
    EXPECT_NE(r.exitCode, 0) << r;
    EXPECT_NE(r.err.find("missing cell"), std::string::npos) << r;
}

TEST(ToolShard, WarmCacheRerunSimulatesZeroCells)
{
    WorkDir dir;
    copyCellCache(dir);
    RunResult r = dir.run({"bench_fig4_speedup", "--scenario-file",
                           ciSmoke(), "--cache-dir", "cellcache",
                           "--timings", "--csv", "warm.csv", "--jobs", "2"});
    ASSERT_EQ(r.exitCode, 0) << r;
    sim::DumpParse warm = sim::parseDumpFile(dir / "warm.csv");
    ASSERT_TRUE(warm.ok()) << warm.error;
    ASSERT_FALSE(warm.rows.empty()) << "empty warm dump";
    EXPECT_EQ(sumCounter(warm.rows, "timing.cache_misses"), 0u);
    EXPECT_EQ(sumCounter(warm.rows, "timing.cells_run"), 0u);
    u64 checkpoints = 0;
    for (const sim::StatRow &row : warm.rows)
        checkpoints += row.checkpoints;
    EXPECT_EQ(sumCounter(warm.rows, "timing.cache_hits"), checkpoints);
}

TEST(ToolShard, CorruptedCellsAreQuarantinedAndResimulated)
{
    const Sweep &s = sweep();
    ASSERT_EQ(s.full.exitCode, 0) << s.full;
    WorkDir dir;
    std::vector<std::string> cells =
        filesUnder(copyCellCache(dir), ".cell");
    ASSERT_GE(cells.size(), 2u);
    // Flip the first payload byte of one record, cut another in half.
    std::string flip = readFile(cells[0]);
    size_t payload = flip.find("\npayload\n");
    ASSERT_NE(payload, std::string::npos);
    flip[payload + 9] ^= 0x01;
    writeFile(cells[0], flip);
    fs::resize_file(cells[1], fs::file_size(cells[1]) / 2);

    RunResult r = dir.run({"bench_fig4_speedup", "--scenario-file",
                           ciSmoke(), "--cache-dir", "cellcache", "--csv",
                           "rewarm.csv", "--jobs", "2"});
    ASSERT_EQ(r.exitCode, 0) << r;
    EXPECT_FALSE(grep(r.err, "^\\[cache\\]").empty()) << r;
    EXPECT_EQ(filesUnder(dir / "cellcache", ".cell.corrupt").size(), 2u);
    EXPECT_FALSE(grep(r.err, "^\\[cache\\] .* 2 quarantined,").empty())
        << r;
    EXPECT_TRUE(sameFile(s.dir / "full.csv", dir / "rewarm.csv"));
}

TEST(ToolShard, CacheGcKeepsTheLiveSweepAndPrunesARetiredArm)
{
    WorkDir dir;
    std::string cache = copyCellCache(dir);
    // Cells of an arm the smoke sweep does not reference go stale.
    RunResult extra = dir.run({"bench_fig4_speedup", "--scenario",
                               "move-elim", "--workload", "mcf",
                               "--cache-dir", "cellcache", "--csv",
                               "/dev/null", "--jobs", "2"});
    ASSERT_EQ(extra.exitCode, 0) << extra;
    size_t before = filesUnder(cache, ".cell").size();
    RunResult dry = dir.run({"rsep_merge", "--gc", "--cache-dir",
                             "cellcache", "--scenario-file", ciSmoke(),
                             "--dry-run"});
    ASSERT_EQ(dry.exitCode, 0) << dry;
    RunResult gc = dir.run({"rsep_merge", "--gc", "--cache-dir", "cellcache",
                            "--scenario-file", ciSmoke()});
    ASSERT_EQ(gc.exitCode, 0) << gc;
    EXPECT_LT(filesUnder(cache, ".cell").size(), before);

    // The surviving cache still serves the sweep warm.
    RunResult warm = dir.run({"bench_fig4_speedup", "--scenario-file",
                              ciSmoke(), "--cache-dir", "cellcache",
                              "--timings", "--csv", "warm2.csv", "--jobs",
                              "2"});
    ASSERT_EQ(warm.exitCode, 0) << warm;
    sim::DumpParse rows = sim::parseDumpFile(dir / "warm2.csv");
    ASSERT_TRUE(rows.ok()) << rows.error;
    ASSERT_FALSE(rows.rows.empty());
    EXPECT_EQ(sumCounter(rows.rows, "timing.cells_run"), 0u);
}

} // namespace
} // namespace rsep::tooltest
