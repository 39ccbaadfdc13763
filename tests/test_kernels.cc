/** @file Property tests over the 29-benchmark workload suite. */

#include <gtest/gtest.h>

#include <map>

#include "wl/suite.hh"

namespace rsep::wl
{
namespace
{

/** Run @p n instructions and collect simple mix statistics. */
struct MixStats
{
    u64 producers = 0;
    u64 loads = 0;
    u64 stores = 0;
    u64 branches = 0;
    u64 zeros = 0;
    u64 total = 0;
};

MixStats
runMix(const std::string &name, u32 phase, u64 n)
{
    Workload w = makeWorkload(name);
    Emulator em(w.program);
    em.resetArchState();
    w.init(em, phase);
    MixStats m;
    for (u64 i = 0; i < n; ++i) {
        const DynRecord &r = em.step();
        const isa::StaticInst &si = w.program.at(r.staticIdx);
        ++m.total;
        if (si.writesReg()) {
            ++m.producers;
            if (r.result == 0 && !si.isZeroIdiom())
                ++m.zeros;
        }
        if (si.isLoad())
            ++m.loads;
        if (si.isStore())
            ++m.stores;
        if (si.isBranch())
            ++m.branches;
    }
    return m;
}

class SuiteWorkloads : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteWorkloads, BuildsAndRunsWithSaneMix)
{
    MixStats m = runMix(GetParam(), 0, 30000);
    EXPECT_EQ(m.total, 30000u);
    // Every kernel produces registers, executes loads and branches.
    EXPECT_GT(m.producers, m.total / 4) << "too few producers";
    EXPECT_GT(m.loads, 0u);
    EXPECT_GT(m.branches, 0u);
    EXPECT_LT(m.loads, m.total * 6 / 10) << "implausible load fraction";
    EXPECT_LT(m.branches, m.total / 2) << "implausible branch fraction";
}

TEST_P(SuiteWorkloads, DeterministicWithinPhase)
{
    const std::string name = GetParam();
    Workload w1 = makeWorkload(name);
    Workload w2 = makeWorkload(name);
    Emulator a(w1.program), b(w2.program);
    a.resetArchState();
    b.resetArchState();
    w1.init(a, 2);
    w2.init(b, 2);
    for (int i = 0; i < 5000; ++i) {
        const DynRecord &ra = a.step();
        const DynRecord &rb = b.step();
        ASSERT_EQ(ra.staticIdx, rb.staticIdx);
        ASSERT_EQ(ra.result, rb.result);
        ASSERT_EQ(ra.effAddr, rb.effAddr);
    }
}

TEST_P(SuiteWorkloads, PhasesDiffer)
{
    const std::string name = GetParam();
    Workload w1 = makeWorkload(name);
    Workload w2 = makeWorkload(name);
    Emulator a(w1.program), b(w2.program);
    a.resetArchState();
    b.resetArchState();
    w1.init(a, 0);
    w2.init(b, 1);
    bool differ = false;
    for (int i = 0; i < 5000 && !differ; ++i) {
        const DynRecord &ra = a.step();
        const DynRecord &rb = b.step();
        differ = ra.result != rb.result || ra.effAddr != rb.effAddr ||
                 ra.staticIdx != rb.staticIdx;
    }
    EXPECT_TRUE(differ) << "checkpoint phases should not be identical";
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteWorkloads,
                         ::testing::ValuesIn(suiteNames()));

TEST(Suite, Has29PaperBenchmarks)
{
    EXPECT_EQ(suiteNames().size(), 29u);
    for (const std::string &name : suiteNames())
        EXPECT_GT(makeWorkload(name).program.size(), 0u) << name;
    // The paper collects 10 checkpoints per benchmark (Section V).
    EXPECT_EQ(checkpointsPerBenchmark, 10u);
}

TEST(Suite, UnknownNameDies)
{
    EXPECT_DEATH(
        {
            Workload w = makeWorkload("not-a-benchmark");
            (void)w;
        },
        "unknown workload");
}

TEST(Suite, ZeroHeavyBenchmarksProduceManyZeros)
{
    // Fig. 1 shape: zeusmp/cactusADM produce far more zero results
    // than dense FP codes like namd.
    MixStats zeus = runMix("zeusmp", 0, 40000);
    MixStats namd = runMix("namd", 0, 40000);
    double zeus_ratio = double(zeus.zeros) / zeus.total;
    double namd_ratio = double(namd.zeros) / namd.total;
    EXPECT_GT(zeus_ratio, 0.10);
    EXPECT_LT(namd_ratio, 0.05);
    EXPECT_GT(zeus_ratio, 3 * namd_ratio);
}

TEST(Suite, GamessHasStructurallyZeroResults)
{
    // The regular_zero archetype produces always-zero static
    // instructions (zero-prediction targets).
    Workload w = makeWorkload("gamess");
    Emulator em(w.program);
    em.resetArchState();
    w.init(em, 0);
    std::map<u32, std::pair<u64, u64>> zero_count; // idx -> (zeros, all)
    for (int i = 0; i < 40000; ++i) {
        const DynRecord &r = em.step();
        if (w.program.at(r.staticIdx).writesReg()) {
            auto &[z, n] = zero_count[r.staticIdx];
            z += r.result == 0;
            ++n;
        }
    }
    bool has_always_zero = false;
    for (auto &[idx, zn] : zero_count)
        if (zn.second > 500 && zn.first == zn.second)
            has_always_zero = true;
    EXPECT_TRUE(has_always_zero);
}

TEST(Suite, McfNodeAndSideArrayAgree)
{
    // The pointer_chase side array must mirror node potentials in
    // visit order (the cross-chain equality the kernel is built on).
    Workload w = makeWorkload("mcf");
    Emulator em(w.program);
    em.resetArchState();
    w.init(em, 0);
    u64 mismatches = 0, pairs = 0;
    u64 side_val = 0;
    for (int i = 0; i < 60000; ++i) {
        const DynRecord &r = em.step();
        const isa::StaticInst &si = w.program.at(r.staticIdx);
        if (!si.isLoad())
            continue;
        // A-loads read the side array (base x11, region 0x2...),
        // B-loads read node->potential (offset 64).
        if (si.op == isa::Opcode::LdrX)
            side_val = r.result;
        else if (si.op == isa::Opcode::Ldr && si.imm == 64) {
            ++pairs;
            mismatches += r.result != side_val;
        }
    }
    ASSERT_GT(pairs, 1000u);
    EXPECT_EQ(mismatches, 0u);
}

} // namespace
} // namespace rsep::wl
