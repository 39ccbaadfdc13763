/** @file Tests for the simulation configuration and runner layer. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/runner.hh"
#include "sim/scenario.hh"

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

TEST(Runner, RunWorkloadProducesPhases)
{
    SimConfig c = findScenario("baseline")->config;
    c.warmupInsts = 2000;
    c.measureInsts = 8000;
    c.checkpoints = 3;
    RunResult r = runWorkload(c, "namd");
    ASSERT_EQ(r.phases.size(), 3u);
    for (const auto &ph : r.phases) {
        EXPECT_GT(ph.ipc, 0.0);
        EXPECT_EQ(ph.stats.committedInsts.value(), 8000u);
    }
    EXPECT_GT(r.ipcHmean(), 0.0);
    EXPECT_EQ(r.sum(&core::PipelineStats::committedInsts), 24000u);
}

TEST(Runner, SpeedupPct)
{
    SimConfig c = findScenario("baseline")->config;
    c.warmupInsts = 1000;
    c.measureInsts = 4000;
    c.checkpoints = 1;
    RunResult a = runWorkload(c, "namd");
    EXPECT_NEAR(speedupPct(a, a), 0.0, 1e-9);
}

TEST(Runner, MatrixAndTables)
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

    auto rows = runMatrix({base, rsep}, {"namd", "dealII"});
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[0].byConfig.size(), 2u);

    // Every header name must stand alone, however long.
    auto header_words = [](const std::string &table) {
        std::istringstream is(table.substr(0, table.find('\n')));
        std::vector<std::string> words;
        for (std::string w; is >> w;)
            words.push_back(w);
        return words;
    };

    std::ostringstream os;
    printSpeedupTable(os, rows, {base, rsep});
    EXPECT_NE(os.str().find("namd"), std::string::npos);
    EXPECT_NE(os.str().find("gmean"), std::string::npos);
    EXPECT_EQ(header_words(os.str()),
              (std::vector<std::string>{"benchmark", rsep.label}));

    std::vector<std::string> cols = {"x", "rsep-val-2x-sample15",
                                     "rsep-val-2x-sample63"};
    std::ostringstream os2;
    printPctTable(os2, rows, cols,
                  [](const MatrixRow &, size_t) { return 1.0; });
    EXPECT_NE(os2.str().find("1.00%"), std::string::npos);
    std::vector<std::string> want = {"benchmark"};
    want.insert(want.end(), cols.begin(), cols.end());
    EXPECT_EQ(header_words(os2.str()), want);
}

} // namespace
} // namespace rsep::sim
