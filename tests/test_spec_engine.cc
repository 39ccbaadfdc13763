/**
 * @file
 * Unit tests for the SpeculationEngine layer: engine registration from
 * MechConfig, per-engine stat isolation, and a golden cross-check that
 * the engine-based pipeline reproduces the monolithic seed pipeline's
 * IPC and coverage counters exactly on two suite workloads for the
 * Fig. 4 baseline / RSEP / VP arms.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/simulator.hh"
#include "wl/suite.hh"

namespace rsep::core
{
namespace
{

using sim::RunResult;
using sim::SimConfig;

/** Build an emulator+pipeline for a named workload. */
struct Rig
{
    wl::Workload w;
    wl::Emulator em;
    Pipeline pipe;

    Rig(const std::string &name, const MechConfig &mech, u32 phase = 0)
        : w(wl::makeWorkload(name)), em(w.program),
          pipe(CoreParams{}, mech, em, 77)
    {
        em.resetArchState();
        w.init(em, phase);
    }
};

std::vector<std::string>
engineNames(const Pipeline &pipe)
{
    std::vector<std::string> names;
    for (const auto *e : pipe.engines())
        names.push_back(e->name());
    return names;
}

TEST(SpecEngine, BaselineRegistersOnlyZeroIdiom)
{
    Rig rig("namd", MechConfig{});
    EXPECT_EQ(engineNames(rig.pipe),
              (std::vector<std::string>{"zero-idiom"}));
    EXPECT_NE(rig.pipe.engineByName("zero-idiom"), nullptr);
    EXPECT_EQ(rig.pipe.engineByName("rsep"), nullptr);
    EXPECT_EQ(rig.pipe.engineByName("dvtage"), nullptr);
    EXPECT_EQ(rig.pipe.engineByName("zero-pred"), nullptr);
    EXPECT_EQ(rig.pipe.engineByName("move-elim"), nullptr);
}

TEST(SpecEngine, RegistrationFollowsMechConfigInPriorityOrder)
{
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.valuePred = true;
    Rig rig("namd", mech);
    EXPECT_EQ(engineNames(rig.pipe),
              (std::vector<std::string>{"zero-idiom", "move-elim", "rsep",
                                        "dvtage"}));

    MechConfig zp;
    zp.zeroIdiomElim = false;
    zp.zeroPred = true;
    Rig rig2("namd", zp);
    EXPECT_EQ(engineNames(rig2.pipe),
              (std::vector<std::string>{"zero-pred"}));
}

TEST(SpecEngine, DisabledEngineStructuresRemainInspectable)
{
    // Engines are constructed in every configuration; only registration
    // is gated. The structure accessors must work even when the
    // mechanism is off.
    Rig rig("namd", MechConfig{});
    EXPECT_EQ(rig.pipe.distancePredictor().lookups.value(), 0u);
    EXPECT_EQ(rig.pipe.valuePredictor().lookup(0x40, {}).confident, false);
}

TEST(SpecEngine, PerEngineStatsMirrorAggregateCounters)
{
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    mech.valuePred = true;
    Rig rig("hmmer", mech);
    rig.pipe.run(60'000);

    const PipelineStats &st = rig.pipe.stats();
    SpeculationEngine *rsep = rig.pipe.engineByName("rsep");
    SpeculationEngine *vp = rig.pipe.engineByName("dvtage");
    SpeculationEngine *zi = rig.pipe.engineByName("zero-idiom");
    SpeculationEngine *me = rig.pipe.engineByName("move-elim");
    ASSERT_NE(rsep, nullptr);
    ASSERT_NE(vp, nullptr);
    ASSERT_NE(zi, nullptr);
    ASSERT_NE(me, nullptr);

    EXPECT_EQ(rsep->statValue("shared"), st.rsepCorrect.value());
    EXPECT_EQ(rsep->statValue("mispredicts"), st.rsepMispredicts.value());
    EXPECT_EQ(vp->statValue("correct"), st.vpCorrect.value());
    EXPECT_EQ(vp->statValue("mispredicts"), st.vpMispredicts.value());
    EXPECT_EQ(zi->statValue("eliminated"), st.zeroIdiomElim.value());
    EXPECT_EQ(me->statValue("eliminated"), st.moveElim.value());
    // The workload must actually exercise the machinery for the above
    // to be meaningful.
    EXPECT_GT(st.committedInsts.value(), 0u);
    EXPECT_GT(rsep->statValue("shared") + vp->statValue("correct"), 0u);
}

TEST(SpecEngine, StatsAreIsolatedPerPipelineInstance)
{
    MechConfig mech;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    Rig active("hmmer", mech);
    Rig idle("hmmer", mech);
    active.pipe.run(40'000);

    SpeculationEngine *hot = active.pipe.engineByName("rsep");
    SpeculationEngine *cold = idle.pipe.engineByName("rsep");
    ASSERT_NE(hot, nullptr);
    ASSERT_NE(cold, nullptr);
    EXPECT_GT(hot->statValue("shared") + hot->statValue("likelyCandidates") +
                  hot->statValue("shareFailNoProducer"),
              0u);
    for (const auto &entry : cold->statEntries())
        EXPECT_EQ(entry.counter->value(), 0u) << entry.name;
}

TEST(SpecEngine, ResetStatsZeroesEngineCounters)
{
    MechConfig mech;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    Rig rig("hmmer", mech);
    rig.pipe.run(40'000);
    rig.pipe.resetStats();
    for (const auto *e : rig.pipe.engines())
        for (const auto &entry : e->statEntries())
            EXPECT_EQ(entry.counter->value(), 0u)
                << e->name() << "." << entry.name;
    EXPECT_EQ(rig.pipe.stats().committedInsts.value(), 0u);
}

// ------------------------------------------------------- golden check

/**
 * Golden values recorded from the pre-refactor monolithic pipeline
 * (seed commit, same compiler and flags) with warmup=20k, measure=60k,
 * checkpoints=2, seed=0x5eed. The engine-based pipeline must reproduce
 * them exactly: same IPC, same cycle count, same coverage counters.
 */
struct GoldenRow
{
    const char *bench;
    const char *label;
    double ipcHmean;
    u64 cycles, committedInsts, zeroIdiomElim, moveElim;
    u64 distPredOther, distPredLoad, valuePredOther, valuePredLoad;
    u64 rsepMispredicts, vpMispredicts;
};

const GoldenRow kGolden[] = {
    {"namd", "baseline", 0.94292538814507509, 127272, 120008, 2, 0, 0, 0, 0, 0, 0, 0},
    {"namd", "rsep", 0.94292538814507509, 127272, 120008, 2, 0, 0, 0, 0, 0, 0, 0},
    {"namd", "vpred", 0.94209633862965525, 127384, 120008, 2, 0, 0, 0, 9994, 0, 0, 2},
    {"namd", "rsep+vpred", 0.94209633862965525, 127384, 120008, 2, 0, 0, 0, 9994, 0, 0, 2},
    {"hmmer", "baseline", 1.0781241577576139, 111310, 120006, 6, 0, 0, 0, 0, 0, 0, 0},
    {"hmmer", "rsep", 1.0817886625387327, 110932, 120005, 6, 0, 32530, 0, 0, 0, 30, 0},
    {"hmmer", "vpred", 1.0789688300977134, 111221, 120004, 6, 0, 0, 0, 38597, 0, 0, 36},
    {"hmmer", "rsep+vpred", 1.0775840652072517, 111363, 120003, 6, 0, 33863, 0, 13907, 0, 22, 36},
};

SimConfig
pinned(SimConfig c)
{
    // Pin the run length explicitly so RSEP_SIM_SCALE / RSEP_CHECKPOINTS
    // in the environment cannot perturb the golden comparison.
    c.warmupInsts = 20'000;
    c.measureInsts = 60'000;
    c.checkpoints = 2;
    c.seed = 0x5eed;
    return c;
}

SimConfig
armByLabel(const std::string &label)
{
    std::optional<sim::Scenario> sc = sim::findScenario(label);
    if (!sc) {
        ADD_FAILURE() << "unknown golden arm " << label;
        sc = sim::findScenario("baseline");
    }
    return pinned(sc->config);
}

TEST(SpecEngineGolden, RefactoredPipelineMatchesSeedCounters)
{
    for (const GoldenRow &g : kGolden) {
        SCOPED_TRACE(std::string(g.bench) + "/" + g.label);
        sim::MatrixOptions mo;
        mo.jobs = 1;
        mo.progress = false;
        RunResult r =
            sim::runMatrix({armByLabel(g.label)}, {g.bench}, mo)[0]
                .byConfig[0];
        EXPECT_NEAR(r.ipcHmean(), g.ipcHmean, 1e-12);
        EXPECT_EQ(r.sum(&PipelineStats::cycles), g.cycles);
        EXPECT_EQ(r.sum(&PipelineStats::committedInsts), g.committedInsts);
        EXPECT_EQ(r.sum(&PipelineStats::zeroIdiomElim), g.zeroIdiomElim);
        EXPECT_EQ(r.sum(&PipelineStats::moveElim), g.moveElim);
        EXPECT_EQ(r.sum(&PipelineStats::distPredOther), g.distPredOther);
        EXPECT_EQ(r.sum(&PipelineStats::distPredLoad), g.distPredLoad);
        EXPECT_EQ(r.sum(&PipelineStats::valuePredOther), g.valuePredOther);
        EXPECT_EQ(r.sum(&PipelineStats::valuePredLoad), g.valuePredLoad);
        EXPECT_EQ(r.sum(&PipelineStats::rsepMispredicts), g.rsepMispredicts);
        EXPECT_EQ(r.sum(&PipelineStats::vpMispredicts), g.vpMispredicts);
    }
}

} // namespace
} // namespace rsep::core
