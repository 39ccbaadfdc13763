/** @file Tests for the simulation configuration and runner layer. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/stat_merge.hh"

namespace rsep::sim
{
namespace
{

TEST(SimConfig, Fig4ArmToggles)
{
    EXPECT_FALSE(findScenario("baseline")->config.mech.equalityPred);
    EXPECT_TRUE(findScenario("baseline")->config.mech.zeroIdiomElim);
    EXPECT_TRUE(findScenario("zero-pred")->config.mech.zeroPred);
    EXPECT_TRUE(findScenario("move-elim")->config.mech.moveElim);

    SimConfig rsep = findScenario("rsep")->config;
    EXPECT_TRUE(rsep.mech.equalityPred);
    EXPECT_TRUE(rsep.mech.moveElim); // side effect of sharing (IV-H1).
    EXPECT_FALSE(rsep.mech.valuePred);
    EXPECT_EQ(rsep.mech.rsep.validation,
              equality::ValidationPolicy::Ideal);
    EXPECT_GT(rsep.mech.rsep.historyDepth, 192u); // >> ROB.

    SimConfig both = findScenario("rsep+vpred")->config;
    EXPECT_TRUE(both.mech.equalityPred);
    EXPECT_TRUE(both.mech.valuePred);
}

TEST(SimConfig, RealisticMatchesPaperSection6B)
{
    SimConfig c = findScenario("rsep-realistic")->config;
    EXPECT_FALSE(c.mech.rsep.idealPredictor);
    EXPECT_EQ(c.mech.rsep.historyDepth, 128u);
    EXPECT_EQ(c.mech.rsep.isrbEntries, 24u);
    EXPECT_TRUE(c.mech.rsep.sampling);
    EXPECT_EQ(c.mech.rsep.startTrainThreshold, 63u);
    EXPECT_EQ(c.mech.rsep.validation,
              equality::ValidationPolicy::Issue2xAnyFu);
}

TEST(SimConfig, ValidationAndSamplingArms)
{
    EXPECT_EQ(findScenario("rsep-val-2x-lock")->config.mech.rsep.validation,
              equality::ValidationPolicy::Issue2xLockFu);
    SimConfig s15 = findScenario("rsep-val-2x-sample15")->config;
    EXPECT_TRUE(s15.mech.rsep.sampling);
    EXPECT_EQ(s15.mech.rsep.startTrainThreshold, 15u);
}

TEST(SimConfig, Table1Description)
{
    std::string t = describeTable1(findScenario("baseline")->config);
    EXPECT_NE(t.find("192-entry ROB"), std::string::npos);
    EXPECT_NE(t.find("60-entry IQ"), std::string::npos);
    EXPECT_NE(t.find("72/48-entry LQ/SQ"), std::string::npos);
    EXPECT_NE(t.find("235/235 INT/FP registers"), std::string::npos);
    EXPECT_NE(t.find("Store Sets"), std::string::npos);
    EXPECT_NE(t.find("DDR4-2400"), std::string::npos);
}

TEST(SimConfig, EnvScaling)
{
    setenv("RSEP_SIM_SCALE", "0.5", 1);
    setenv("RSEP_CHECKPOINTS", "2", 1);
    SimConfig c = findScenario("baseline")->config;
    EXPECT_EQ(c.warmupInsts, 16000u);
    EXPECT_EQ(c.measureInsts, 80000u);
    EXPECT_EQ(c.checkpoints, 2u);
    setenv("RSEP_CHECKPOINTS", "4294967295", 1);
    EXPECT_EQ(findScenario("baseline")->config.checkpoints, 4294967295u);

    // Sizes that cannot run warn and keep the default sizing instead
    // of casting to a huge, zero or undefined window.
    unsetenv("RSEP_CHECKPOINTS");
    for (const char *bad : {"-1", "0", "nan", "inf", "-inf", "x", "1e300"}) {
        setenv("RSEP_SIM_SCALE", bad, 1);
        SimConfig d = findScenario("baseline")->config;
        EXPECT_EQ(d.warmupInsts, 32000u) << bad;
        EXPECT_EQ(d.measureInsts, 160000u) << bad;
    }
    unsetenv("RSEP_SIM_SCALE");
    for (const char *bad : {"0", "4294967296", "-1"}) {
        setenv("RSEP_CHECKPOINTS", bad, 1);
        EXPECT_EQ(findScenario("baseline")->config.checkpoints, 2u) << bad;
    }
    unsetenv("RSEP_CHECKPOINTS");
}

TEST(Runner, OneArmMatrixProducesPhases)
{
    SimConfig c = findScenario("baseline")->config;
    c.warmupInsts = 2000;
    c.measureInsts = 8000;
    c.checkpoints = 3;
    MatrixOptions mo;
    mo.progress = false;
    RunResult r = runMatrix({c}, {"namd"}, mo)[0].byConfig[0];
    ASSERT_EQ(r.phases.size(), 3u);
    for (const auto &ph : r.phases) {
        EXPECT_GT(ph.ipc, 0.0);
        EXPECT_EQ(ph.stats.committedInsts.value(), 8000u);
    }
    EXPECT_GT(r.ipcHmean(), 0.0);
    EXPECT_EQ(r.sum(&core::PipelineStats::committedInsts), 24000u);
}

TEST(Runner, SpeedupOfAnArmOverItselfIsZero)
{
    SimConfig a = findScenario("baseline")->config;
    a.warmupInsts = 1000;
    a.measureInsts = 4000;
    a.checkpoints = 1;
    SimConfig b = a;
    b.label = "same";
    std::vector<SimConfig> configs{a, b};
    std::vector<StatRow> rows =
        collectStatRows(configs, runMatrix(configs, {"namd"}));

    SpeedupGrid grid;
    std::string err;
    ASSERT_TRUE(speedupGrid(rows, {a.label, b.label}, {"namd"}, grid, &err))
        << err;
    ASSERT_EQ(grid.bars.size(), 1u);
    ASSERT_EQ(grid.bars[0].size(), 1u);
    EXPECT_NEAR(grid.bars[0][0].pct, 0.0, 1e-9);
    EXPECT_NEAR(grid.arms[0].gmeanPct, 0.0, 1e-9);
}

/** The words of a table's first line: every header name must stand
 *  alone, however long. */
std::vector<std::string>
headerWords(const std::string &table)
{
    std::istringstream is(table.substr(0, table.find('\n')));
    std::vector<std::string> words;
    for (std::string w; is >> w;)
        words.push_back(w);
    return words;
}

TEST(Runner, MatrixAndSpeedupTable)
{
    SimConfig base = findScenario("baseline")->config;
    base.warmupInsts = 1000;
    base.measureInsts = 4000;
    base.checkpoints = 1;
    SimConfig rsep = findScenario("rsep")->config;
    rsep.warmupInsts = 1000;
    rsep.measureInsts = 4000;
    rsep.checkpoints = 1;
    // 20 characters: wider than the default 18-character column.
    rsep.label = "rsep-val-2x-sample15";

    std::vector<SimConfig> configs{base, rsep};
    auto rows = runMatrix(configs, {"namd", "dealII"});
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[0].byConfig.size(), 2u);

    SpeedupGrid grid;
    std::string err;
    ASSERT_TRUE(speedupGrid(collectStatRows(configs, rows),
                            {base.label, rsep.label}, {"namd", "dealII"},
                            grid, &err))
        << err;
    std::ostringstream os;
    writeSpeedupTable(os, grid);
    EXPECT_NE(os.str().find("namd"), std::string::npos);
    EXPECT_NE(os.str().find("gmean"), std::string::npos);
    EXPECT_EQ(headerWords(os.str()),
              (std::vector<std::string>{"benchmark", rsep.label}));
}

TEST(Runner, SpeedupTableSkipsABenchmarkWithoutABaselineIpc)
{
    auto row = [](const std::string &bench, const std::string &arm,
                  double ipc) {
        StatRow r;
        r.benchmark = bench;
        r.scenario = arm;
        r.configHash = arm + "-hash";
        r.checkpoints = 1;
        r.ipcHmean = ipc;
        // Speedups read the IPC off the counters (sorted by name).
        r.counters = {{"committed_insts", static_cast<u64>(ipc * 1000)},
                      {"cycles", 1000}};
        return r;
    };
    const std::string arm1 = "rsep-val-2x-sample15";
    const std::string arm2 = "rsep-val-2x-sample63";
    std::vector<StatRow> rows = {
        row("mcf", "baseline", 1.0),  row("mcf", arm1, 1.1),
        row("mcf", arm2, 1.2),        row("namd", "baseline", 0.0),
        row("namd", arm1, 2.0),       row("namd", arm2, 2.0)};

    SpeedupGrid grid;
    ASSERT_TRUE(speedupGrid(rows, {"baseline", arm1, arm2},
                            {"namd", "mcf"}, grid));
    EXPECT_EQ(grid.benchmarks, std::vector<std::string>{"mcf"});
    EXPECT_EQ(grid.skipped, std::vector<std::string>{"namd"});
    std::ostringstream os;
    writeSpeedupTable(os, grid);
    EXPECT_EQ(headerWords(os.str()),
              (std::vector<std::string>{"benchmark", arm1, arm2}));
    // The gmean is mcf's bars alone; namd gets no made-up 0.00% bar.
    std::string table = os.str();
    std::string gmean = table.substr(table.find("\ngmean") + 1);
    EXPECT_EQ(headerWords(gmean),
              (std::vector<std::string>{"gmean", "10.00%", "20.00%"}))
        << table;
    EXPECT_EQ(table.find("\nnamd"), std::string::npos) << table;
    EXPECT_NE(os.str().find("skipped 1 benchmark(s) with no usable "
                            "'baseline' IPC: namd"),
              std::string::npos)
        << os.str();
}

} // namespace
} // namespace rsep::sim
