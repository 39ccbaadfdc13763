/**
 * @file
 * Oracle-equality engine tests: the limit-study arm shares without
 * ever mispredicting, books coverage into the Fig. 5 counters, stays
 * deterministic across thread counts, and is reachable both from the
 * scenario registry (`rsep-oracle`) and from scenario files
 * (`oracle_eq = true`).
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "sim/scenario.hh"

namespace rsep::sim
{
namespace
{

SimConfig
shrunkOracle()
{
    auto sc = findScenario("rsep-oracle");
    EXPECT_TRUE(sc.has_value());
    SimConfig c = sc->config;
    c.warmupInsts = 2'000;
    c.measureInsts = 8'000;
    c.checkpoints = 1;
    c.seed = 0x5eed;
    return c;
}

u64
engineStat(const PhaseResult &pr, const std::string &name)
{
    for (const auto &[n, v] : pr.engineStats)
        if (n == name)
            return v;
    return 0;
}

TEST(OracleEq, RegisteredScenarioEnablesTheEngine)
{
    auto sc = findScenario("rsep-oracle");
    ASSERT_TRUE(sc.has_value());
    EXPECT_TRUE(sc->config.mech.oracleEq);
    EXPECT_FALSE(sc->config.mech.equalityPred)
        << "the oracle replaces the predictor, not rides beside it";
    EXPECT_TRUE(sc->config.mech.moveElim);
    // The registry has one spelling per arm: no aliases.
    EXPECT_FALSE(findScenario("rsepOracle").has_value());
    EXPECT_FALSE(findScenario("oracle-eq").has_value());
}

TEST(OracleEq, SharesWithoutEverMispredicting)
{
    SimConfig cfg = shrunkOracle();
    for (const char *bench : {"hmmer", "omnetpp", "xalancbmk"}) {
        PhaseResult pr = runPhase(cfg, bench, 0);
        u64 shared = engineStat(pr, "engine.oracle-eq.shared");
        EXPECT_GT(shared, 0u) << bench;
        // Oracle coverage lands in the Fig. 5 distance-prediction
        // counters, like the real engine's.
        EXPECT_EQ(pr.stats.distPredLoad.value() +
                      pr.stats.distPredOther.value(),
                  shared)
            << bench;
        EXPECT_EQ(pr.stats.rsepCorrect.value(), shared) << bench;
        // Perfect knowledge: no equality mispredictions, hence no
        // equality-triggered commit squashes.
        EXPECT_EQ(pr.stats.rsepMispredicts.value(), 0u) << bench;
        EXPECT_EQ(pr.stats.commitSquashes.value(), 0u) << bench;
    }
}

TEST(OracleEq, IsAnUpperBoundOnCoverage)
{
    // The oracle must cover at least what the trained predictor
    // covers: it sees every equal pair the FIFO history can surface.
    SimConfig oracle = shrunkOracle();
    auto rsep = findScenario("rsep");
    ASSERT_TRUE(rsep.has_value());
    SimConfig real = rsep->config;
    real.warmupInsts = oracle.warmupInsts;
    real.measureInsts = oracle.measureInsts;
    real.checkpoints = oracle.checkpoints;
    real.seed = oracle.seed;

    for (const char *bench : {"omnetpp", "xalancbmk"}) {
        PhaseResult po = runPhase(oracle, bench, 0);
        PhaseResult pr = runPhase(real, bench, 0);
        EXPECT_GE(po.stats.rsepCorrect.value(),
                  pr.stats.rsepCorrect.value())
            << bench;
    }
}

TEST(OracleEq, MatrixIsThreadCountInvariant)
{
    SimConfig cfg = shrunkOracle();
    cfg.checkpoints = 2;
    MatrixOptions serial, wide;
    serial.jobs = 1;
    serial.progress = false;
    wide.jobs = 4;
    wide.progress = false;

    auto r1 = runMatrix({cfg}, {"omnetpp"}, serial);
    auto r4 = runMatrix({cfg}, {"omnetpp"}, wide);
    ASSERT_EQ(r1[0].byConfig[0].phases.size(),
              r4[0].byConfig[0].phases.size());
    for (size_t p = 0; p < r1[0].byConfig[0].phases.size(); ++p) {
        EXPECT_EQ(r1[0].byConfig[0].phases[p].ipc,
                  r4[0].byConfig[0].phases[p].ipc);
        EXPECT_EQ(r1[0].byConfig[0].phases[p].stats.cycles.value(),
                  r4[0].byConfig[0].phases[p].stats.cycles.value());
    }
}

TEST(OracleEq, ScenarioFileToggleWorks)
{
    ScenarioParse p = parseScenarioText("[scenario]\n"
                                        "name = oracle-from-file\n"
                                        "base = baseline\n"
                                        "[mech]\n"
                                        "oracle_eq = true\n"
                                        "move_elim = true\n",
                                        "t.scn");
    ASSERT_TRUE(p.ok()) << p.error;
    ASSERT_EQ(p.scenarios.size(), 1u);
    EXPECT_TRUE(p.scenarios[0].config.mech.oracleEq);

    // The registered arm round-trips the text format losslessly (its
    // oracle_eq key serializes and re-parses).
    auto sc = findScenario("rsep-oracle");
    ASSERT_TRUE(sc.has_value());
    ScenarioParse p2 = parseScenarioText(serializeScenario(*sc), "rt");
    ASSERT_TRUE(p2.ok()) << p2.error;
    EXPECT_EQ(configHash(p2.scenarios[0].config), configHash(sc->config));
    EXPECT_TRUE(p2.scenarios[0].config.mech.oracleEq);
}

} // namespace
} // namespace rsep::sim
