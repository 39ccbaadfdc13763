/** @file Integration tests of the OoO pipeline and its mechanisms. */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "core/trace_buffer.hh"
#include "wl/suite.hh"

namespace rsep::core
{
namespace
{

using wl::Emulator;
using wl::Workload;

/** Build an emulator+pipeline for a named workload. */
struct Rig
{
    Workload w;
    Emulator em;
    Pipeline pipe;

    Rig(const std::string &name, const MechConfig &mech, u32 phase = 0)
        : w(wl::makeWorkload(name)), em(w.program),
          pipe(CoreParams{}, mech, em, 77)
    {
        em.resetArchState();
        w.init(em, phase);
    }
};

TEST(TraceBuffer, IndexedAccessAndTrim)
{
    Workload w = wl::makeWorkload("namd");
    Emulator em(w.program);
    em.resetArchState();
    w.init(em, 0);
    TraceBuffer tb(em);
    const wl::DynRecord r5 = tb.at(5);
    const wl::DynRecord r2 = tb.at(2); // rewind read.
    EXPECT_EQ(tb.at(5).staticIdx, r5.staticIdx);
    EXPECT_EQ(tb.at(2).staticIdx, r2.staticIdx);
    tb.trimBelow(4);
    EXPECT_EQ(tb.baseIndex(), 4u);
    EXPECT_EQ(tb.at(5).staticIdx, r5.staticIdx);
}

TEST(Pipeline, CommitsAtLeastRequestedInstructions)
{
    // Commit groups are up to 8 wide, so run() may overshoot by at
    // most one group.
    Rig rig("namd", MechConfig{});
    rig.pipe.run(5000);
    u64 first = rig.pipe.stats().committedInsts.value();
    EXPECT_GE(first, 5000u);
    EXPECT_LT(first, 5008u);
    rig.pipe.run(2500);
    u64 second = rig.pipe.stats().committedInsts.value();
    EXPECT_GE(second, first + 2500);
    EXPECT_LT(second, first + 2508);
}

TEST(Pipeline, IpcWithinPhysicalBounds)
{
    Rig rig("namd", MechConfig{});
    rig.pipe.run(30000);
    double ipc = rig.pipe.stats().ipc();
    EXPECT_GT(ipc, 0.01);
    EXPECT_LE(ipc, 8.0); // cannot exceed machine width.
}

TEST(Pipeline, ResetStatsClearsCounters)
{
    Rig rig("namd", MechConfig{});
    rig.pipe.run(2000);
    rig.pipe.resetStats();
    EXPECT_EQ(rig.pipe.stats().committedInsts.value(), 0u);
    EXPECT_EQ(rig.pipe.stats().cycles.value(), 0u);
    rig.pipe.run(1000);
    EXPECT_EQ(rig.pipe.stats().committedInsts.value(), 1000u);
}

TEST(Pipeline, RegisterConservationBaseline)
{
    Rig rig("gobmk", MechConfig{});
    for (int i = 0; i < 10; ++i) {
        rig.pipe.run(3000);
        ASSERT_TRUE(rig.pipe.checkRegisterConservation());
    }
}

TEST(Pipeline, RegisterConservationWithSharing)
{
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    // dealII exercises heavy sharing; omnetpp exercises moves.
    for (const char *bench : {"dealII", "omnetpp", "hmmer"}) {
        Rig rig(bench, mech);
        for (int i = 0; i < 6; ++i) {
            rig.pipe.run(5000);
            ASSERT_TRUE(rig.pipe.checkRegisterConservation()) << bench;
        }
    }
}

TEST(Pipeline, RegisterConservationCountsIsrbSharers)
{
    // After a run that shares registers, every shared register's ISRB
    // count equals its architectural plus in-flight old mappings.
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    Rig rig("dealII", mech);
    rig.pipe.run(20000);
    EXPECT_GT(rig.pipe.stats().rsepCorrect.value(), 0u);
    EXPECT_GT(rig.pipe.isrb().entriesInUse(), 0u);
    ASSERT_TRUE(rig.pipe.checkRegisterConservation());

    // One sharer the ISRB counts but no mapping holds breaks it.
    PhysReg extra = 1;
    while (!rig.pipe.isrb().share(extra))
        ++extra;
    EXPECT_FALSE(rig.pipe.checkRegisterConservation());
}

TEST(Pipeline, RegisterConservationWithAllMechanisms)
{
    MechConfig mech;
    mech.moveElim = true;
    mech.zeroPred = true;
    mech.equalityPred = true;
    mech.valuePred = true;
    mech.rsep = equality::RsepConfig::realistic();
    Rig rig("xalancbmk", mech);
    for (int i = 0; i < 6; ++i) {
        rig.pipe.run(5000);
        ASSERT_TRUE(rig.pipe.checkRegisterConservation());
    }
}

TEST(Pipeline, ZeroIdiomsEliminatedInBaseline)
{
    // The interp kernel executes 'movi x7, 0' zero idioms.
    Rig rig("perlbench", MechConfig{});
    rig.pipe.run(30000);
    EXPECT_GT(rig.pipe.stats().zeroIdiomElim.value(), 0u);
}

TEST(Pipeline, MoveEliminationCoversMoves)
{
    MechConfig mech;
    mech.moveElim = true;
    Rig rig("xalancbmk", mech);
    rig.pipe.run(30000);
    EXPECT_GT(rig.pipe.stats().moveElim.value(), 1000u);
    ASSERT_TRUE(rig.pipe.checkRegisterConservation());
}

TEST(Pipeline, EqualityPredictionIsAccurate)
{
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    Rig rig("mcf", mech);
    rig.pipe.run(60000);
    const auto &st = rig.pipe.stats();
    u64 correct = st.rsepCorrect.value();
    u64 wrong = st.rsepMispredicts.value();
    ASSERT_GT(correct, 1000u) << "expected substantial coverage on mcf";
    // Paper Section VI-B: accuracy always > 99.5%.
    EXPECT_GT(double(correct) / double(correct + wrong), 0.995);
}

TEST(Pipeline, ZeroPredictionFindsAlwaysZeroInstructions)
{
    MechConfig mech;
    mech.zeroPred = true;
    Rig rig("gamess", mech);
    rig.pipe.run(60000);
    const auto &st = rig.pipe.stats();
    EXPECT_GT(st.zeroPredOther.value(), 1000u);
    u64 wrong = st.zeroMispredicts.value();
    u64 correct = st.zeroCorrect.value();
    EXPECT_GT(double(correct) / double(correct + wrong + 1), 0.99);
}

TEST(Pipeline, ValuePredictionCoversInterpreter)
{
    MechConfig mech;
    mech.valuePred = true;
    Rig rig("perlbench", mech);
    rig.pipe.run(120000);
    const auto &st = rig.pipe.stats();
    u64 vp = st.valuePredOther.value() + st.valuePredLoad.value();
    EXPECT_GT(vp, 5000u);
    u64 wrong = st.vpMispredicts.value();
    EXPECT_GT(double(st.vpCorrect.value()) /
                  double(st.vpCorrect.value() + wrong + 1),
              0.99);
}

TEST(Pipeline, EqualityNeverCorruptsArchitecture)
{
    // Two pipelines over the same workload, one with every speculation
    // mechanism on: committed instruction counts must advance equally
    // and the speculative one must stay squash-consistent.
    MechConfig all;
    all.moveElim = true;
    all.zeroPred = true;
    all.equalityPred = true;
    all.valuePred = true;
    all.rsep = equality::RsepConfig::idealLarge();
    Rig a("libquantum", MechConfig{});
    Rig b("libquantum", all);
    a.pipe.run(40000);
    b.pipe.run(40000);
    // Commit groups may overshoot by <8, but the architectural stream
    // is identical: instruction-class counts track within one group.
    EXPECT_NEAR(double(a.pipe.stats().committedInsts.value()),
                double(b.pipe.stats().committedInsts.value()), 8.0);
    EXPECT_NEAR(double(a.pipe.stats().committedLoads.value()),
                double(b.pipe.stats().committedLoads.value()), 8.0);
    EXPECT_NEAR(double(a.pipe.stats().committedStores.value()),
                double(b.pipe.stats().committedStores.value()), 8.0);
}

TEST(Pipeline, IdealRsepNeverSlowsDownMaterially)
{
    // With ideal validation (the Fig. 4 configuration), RSEP should
    // never lose more than noise on any workload.
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    for (const char *bench : {"bzip2", "namd", "zeusmp", "sjeng"}) {
        Rig base(bench, MechConfig{});
        Rig rsep(bench, mech);
        base.pipe.run(40000);
        rsep.pipe.run(40000);
        double b = base.pipe.stats().ipc();
        double r = rsep.pipe.stats().ipc();
        EXPECT_GT(r / b, 0.985) << bench;
    }
}

TEST(Pipeline, RsepDeliversSpeedupOnEqualityHeavyKernels)
{
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    for (const char *bench : {"dealII", "omnetpp"}) {
        Rig base(bench, MechConfig{});
        Rig rsep(bench, mech);
        // Warm up (predictor training), then measure.
        base.pipe.run(60000);
        base.pipe.resetStats();
        base.pipe.run(60000);
        rsep.pipe.run(60000);
        rsep.pipe.resetStats();
        rsep.pipe.run(60000);
        EXPECT_GT(rsep.pipe.stats().ipc(),
                  base.pipe.stats().ipc() * 1.02)
            << bench;
    }
}

TEST(Pipeline, ValidationPolicyOrdering)
{
    // Fig. 6: ideal >= any-FU >= lock-FU on a load-covered benchmark.
    auto run_with = [](equality::ValidationPolicy pol) {
        MechConfig mech;
        mech.moveElim = true;
        mech.equalityPred = true;
        mech.rsep = equality::RsepConfig::idealLarge();
        mech.rsep.validation = pol;
        Rig rig("mcf", mech);
        rig.pipe.run(40000);
        return rig.pipe.stats().ipc();
    };
    double ideal = run_with(equality::ValidationPolicy::Ideal);
    double any = run_with(equality::ValidationPolicy::Issue2xAnyFu);
    double lock = run_with(equality::ValidationPolicy::Issue2xLockFu);
    EXPECT_GE(ideal * 1.005, any);
    EXPECT_GE(any * 1.02, lock);
}

TEST(Pipeline, SamplingSlowsTraining)
{
    // With commit sampling, fewer training events reach the distance
    // predictor per committed instruction.
    auto train_events = [](bool sampling) {
        MechConfig mech;
        mech.moveElim = true;
        mech.equalityPred = true;
        mech.rsep = equality::RsepConfig::idealLarge();
        mech.rsep.validation = equality::ValidationPolicy::Issue2xAnyFu;
        mech.rsep.sampling = sampling;
        Rig rig("hmmer", mech);
        rig.pipe.run(30000);
        return rig.pipe.distancePredictor().trainEvents.value();
    };
    EXPECT_LT(train_events(true), train_events(false) / 2);
}

TEST(Pipeline, LikelyCandidatesAppearUnderSampling)
{
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::realistic();
    mech.rsep.startTrainThreshold = 15;
    Rig rig("bzip2", mech);
    rig.pipe.run(60000);
    EXPECT_GT(rig.pipe.stats().likelyCandidates.value(), 100u);
}

TEST(Pipeline, DdtVariantRuns)
{
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    mech.rsep.useDdt = true;
    Rig rig("dealII", mech);
    rig.pipe.run(40000);
    EXPECT_GT(rig.pipe.stats().ipc(), 0.1);
    EXPECT_GT(rig.pipe.stats().distPredOther.value() +
                  rig.pipe.stats().distPredLoad.value(),
              0u);
}

TEST(Pipeline, Fig1ProbeCountsRedundancy)
{
    MechConfig mech;
    mech.fig1Probe = true;
    Rig rig("libquantum", mech);
    rig.pipe.run(60000);
    const auto &st = rig.pipe.stats();
    // libquantum: heavy zero production and value reuse (Fig. 1).
    double zero_ratio =
        double(st.fig1ZeroLoad.value() + st.fig1ZeroOther.value()) /
        double(st.committedInsts.value());
    double prf_ratio =
        double(st.fig1InPrfLoad.value() + st.fig1InPrfOther.value()) /
        double(st.committedInsts.value());
    EXPECT_GT(zero_ratio, 0.02);
    EXPECT_GT(prf_ratio, 0.10);
}

TEST(Pipeline, CommitGroupHistogramPopulated)
{
    MechConfig mech;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::idealLarge();
    Rig rig("lbm", mech);
    rig.pipe.run(30000);
    EXPECT_GT(rig.pipe.stats().commitGroupProducers.samples(), 1000u);
    // lbm retires wide eligible commit groups (Section IV-D): the top
    // buckets of the histogram must be populated.
    EXPECT_GT(rig.pipe.stats().commitGroupProducers.bucket(7) +
                  rig.pipe.stats().commitGroupProducers.bucket(8),
              0u);
}

TEST(Pipeline, ZeroLatencyConfigsDoNotLivelock)
{
    // Scenario files may override any latency to 0, which makes an
    // instruction complete in its own issue cycle — its dependants
    // become eligible mid-issue-scan. The event-driven scheduler must
    // merge those same-cycle wakes into the current pass (the old
    // full-ROB walk reached them naturally); a dropped wake shows up
    // here as the run() livelock panic.
    CoreParams zero_lat;
    zero_lat.intAluLat = 0;
    zero_lat.branchLat = 0;
    zero_lat.storeLat = 0;
    zero_lat.fpAluLat = 0;
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::realistic();
    // milc/libquantum/bzip2 raise memory-order violation squashes
    // under this sizing, covering the end-stage deferred-wake merge.
    for (const char *bench :
         {"hmmer", "mcf", "dealII", "milc", "libquantum", "bzip2"}) {
        Workload w = wl::makeWorkload(bench);
        Emulator em(w.program);
        em.resetArchState();
        w.init(em, 0);
        Pipeline pipe(zero_lat, mech, em, 77);
        pipe.run(60000);
        EXPECT_GE(pipe.stats().committedInsts.value(), 60000u) << bench;
        ASSERT_TRUE(pipe.checkRegisterConservation()) << bench;
    }
}

TEST(Pipeline, IsrbOccupancyStaysBounded)
{
    MechConfig mech;
    mech.moveElim = true;
    mech.equalityPred = true;
    mech.rsep = equality::RsepConfig::realistic();
    Rig rig("hmmer", mech);
    rig.pipe.run(40000);
    EXPECT_LE(rig.pipe.isrb().entriesInUse(), rig.pipe.isrb().capacity());
}

} // namespace
} // namespace rsep::core
