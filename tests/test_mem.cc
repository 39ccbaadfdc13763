/** @file Memory hierarchy tests: caches, MSHRs, prefetchers, TLB, DRAM. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "mem/hierarchy.hh"
#include "pred/storesets.hh"

namespace rsep
{
namespace
{

using namespace rsep::mem;

TEST(Cache, HitAfterMiss)
{
    CacheLevel c({.name = "t", .sizeBytes = 4096, .assoc = 4,
                  .latency = 4, .mshrs = 8});
    EXPECT_FALSE(c.accessTags(0x1000, false));
    EXPECT_TRUE(c.accessTags(0x1000, false));
    EXPECT_TRUE(c.accessTags(0x1038, false)); // same 64B line.
    EXPECT_FALSE(c.accessTags(0x1040, false)); // next line.
    EXPECT_EQ(c.hits.value(), 2u);
    EXPECT_EQ(c.misses.value(), 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // 4 sets x 2 ways, 64B lines: lines mapping to set 0 are 256B apart.
    CacheLevel c({.name = "t", .sizeBytes = 512, .assoc = 2,
                  .latency = 1, .mshrs = 4});
    c.accessTags(0x0, false);
    c.accessTags(0x100, false);
    c.accessTags(0x0, false);   // refresh line 0.
    c.accessTags(0x200, false); // evicts 0x100.
    EXPECT_TRUE(c.peek(0x0));
    EXPECT_FALSE(c.peek(0x100));
    EXPECT_TRUE(c.peek(0x200));
}

TEST(Cache, MshrMergeSameLine)
{
    CacheLevel c({.name = "t", .sizeBytes = 4096, .assoc = 4,
                  .latency = 4, .mshrs = 8});
    Cycle r1 = c.trackMiss(0x2000, 10, 100);
    EXPECT_EQ(r1, 100u);
    auto pend = c.pendingFill(0x2008, 20); // same line.
    ASSERT_TRUE(pend.has_value());
    EXPECT_EQ(*pend, 100u);
    EXPECT_EQ(c.mshrMerges.value(), 1u);
    // After completion the fill expires.
    EXPECT_FALSE(c.pendingFill(0x2008, 101).has_value());
}

TEST(Cache, MshrCapacityDelays)
{
    CacheLevel c({.name = "t", .sizeBytes = 4096, .assoc = 4,
                  .latency = 4, .mshrs = 2});
    c.trackMiss(0x0, 0, 50);
    c.trackMiss(0x40, 0, 60);
    // Third miss must wait for the earliest MSHR to free (cycle 50).
    Cycle r = c.trackMiss(0x80, 0, 70);
    EXPECT_GE(r, 70u + 50u);
    EXPECT_EQ(c.mshrStalls.value(), 1u);
}

TEST(Cache, RejectsAssocAbove255)
{
    EXPECT_DEATH(CacheLevel({.name = "t", .sizeBytes = 256 * 64,
                             .assoc = 256, .latency = 1, .mshrs = 4}),
                 "associativity");
}

/**
 * CacheLevel before the flat tag store: a valid bit per way with a
 * victim scan over every way, and an ordered map of MSHRs reaped in full
 * on every call. The reference the flat store must agree with, return
 * for return and counter for counter.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &params)
        : p(params), sets(params.sizeBytes / lineBytes / params.assoc),
          ways(params.sizeBytes / lineBytes)
    {
    }

    bool
    accessTags(Addr addr)
    {
        size_t s = (addr >> lineShift) & (sets - 1);
        Addr tag = addr >> lineShift;
        ++useClock;
        Way *victim = nullptr;
        for (unsigned w = 0; w < p.assoc; ++w) {
            Way &way = ways[s * p.assoc + w];
            if (way.valid && way.tag == tag) {
                way.lastUse = useClock;
                ++hits;
                return true;
            }
            if (!victim || (!way.valid && victim->valid) ||
                (way.valid == victim->valid &&
                 way.lastUse < victim->lastUse))
                victim = &way;
        }
        ++misses;
        evictions += victim->valid;
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = useClock;
        return false;
    }

    bool
    peek(Addr addr) const
    {
        size_t s = (addr >> lineShift) & (sets - 1);
        for (unsigned w = 0; w < p.assoc; ++w) {
            const Way &way = ways[s * p.assoc + w];
            if (way.valid && way.tag == addr >> lineShift)
                return true;
        }
        return false;
    }

    void
    reapMshrs(Cycle now)
    {
        for (auto it = outstanding.begin(); it != outstanding.end();) {
            if (it->second <= now)
                it = outstanding.erase(it);
            else
                ++it;
        }
    }

    std::optional<Cycle>
    pendingFill(Addr addr, Cycle now)
    {
        reapMshrs(now);
        auto it = outstanding.find(addr >> lineShift);
        if (it == outstanding.end())
            return std::nullopt;
        ++mshrMerges;
        return it->second;
    }

    Cycle
    trackMiss(Addr addr, Cycle now, Cycle ready)
    {
        reapMshrs(now);
        Addr line = addr >> lineShift;
        auto it = outstanding.find(line);
        if (it != outstanding.end()) {
            ++mshrMerges;
            return it->second;
        }
        if (outstanding.size() >= p.mshrs) {
            ++mshrStalls;
            Cycle earliest = invalidCycle;
            for (const auto &[l, r] : outstanding)
                earliest = std::min(earliest, r);
            ready += earliest > now ? earliest - now : 0;
        }
        outstanding[line] = ready;
        return ready;
    }

    size_t inFlight() const { return outstanding.size(); }

    u64 hits = 0;
    u64 misses = 0;
    u64 mshrMerges = 0;
    u64 mshrStalls = 0;
    u64 evictions = 0;

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        u64 lastUse = 0;
    };

    CacheParams p;
    u64 sets;
    std::vector<Way> ways;
    u64 useClock = 0;
    std::map<Addr, Cycle> outstanding;
};

class CacheFlatVsReference : public ::testing::TestWithParam<CacheParams>
{
};

TEST_P(CacheFlatVsReference, SameReturnsAndCounters)
{
    const CacheParams &cp = GetParam();
    CacheLevel c(cp);
    RefCache ref(cp);
    Rng rng(cp.sizeBytes * 31 + cp.assoc * 7 + cp.mshrs);
    const u64 sets = cp.sizeBytes / lineBytes / cp.assoc;
    // Most lines crowd into a few sets, three tags per way, so most
    // misses in those sets evict; the rest land anywhere.
    const u64 hotSets = std::min<u64>(sets, 4);
    auto randomAddr = [&] {
        u64 set = rng.chance(15, 16) ? rng.below(hotSets) : rng.below(sets);
        u64 tag = rng.below(3 * cp.assoc);
        return ((tag * sets + set) << lineShift) | rng.below(lineBytes);
    };
    Cycle now = 1000;
    u64 backwards = 0;
    u64 overfull = 0;

    for (u64 step = 0; step < 40000 && !HasFailure(); ++step) {
        // The load path probes at now + TLB latency, so the next call
        // can be earlier than the last one.
        if (rng.chance(1, 8)) {
            now -= std::min<Cycle>(now, rng.below(40));
            ++backwards;
        } else {
            now += rng.below(4);
        }
        // Alternate light and heavy miss latency every 2000 steps, so
        // the file both drains and overflows.
        Cycle maxLat = (step / 2000) % 2 ? 40 * cp.mshrs : 100;
        Addr a = randomAddr();
        switch (rng.below(5)) {
          case 0:
          case 1:
            ASSERT_EQ(c.accessTags(a, rng.chance(1, 4)), ref.accessTags(a))
                << "step " << step;
            break;
          case 2:
            ASSERT_EQ(c.peek(a), ref.peek(a)) << "step " << step;
            break;
          case 3: {
            auto got = c.pendingFill(a, now);
            auto want = ref.pendingFill(a, now);
            ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
            if (got) {
                ASSERT_EQ(*got, *want) << "step " << step;
            }
            break;
          }
          default: {
            Cycle ready = now + 1 + rng.below(maxLat);
            ASSERT_EQ(c.trackMiss(a, now, ready),
                      ref.trackMiss(a, now, ready))
                << "step " << step;
          }
        }
        if (rng.chance(1, 16)) {
            c.reapMshrs(now);
            ref.reapMshrs(now);
        }
        overfull += ref.inFlight() > cp.mshrs;
        ASSERT_EQ(c.hits.value(), ref.hits);
        ASSERT_EQ(c.misses.value(), ref.misses);
        ASSERT_EQ(c.mshrMerges.value(), ref.mshrMerges);
        ASSERT_EQ(c.mshrStalls.value(), ref.mshrStalls);
    }
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.evictions, 0u);
    EXPECT_GT(ref.mshrMerges, 0u);
    EXPECT_GT(ref.mshrStalls, 0u);
    EXPECT_GT(overfull, 0u);
    EXPECT_GT(backwards, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFlatVsReference,
    ::testing::Values(
        // Direct-mapped, 16 sets.
        CacheParams{.name = "dm", .sizeBytes = 1024, .assoc = 1,
                    .latency = 1, .mshrs = 4},
        // 2 sets x 2 ways, 2 MSHRs: eviction and overfull file dominate.
        CacheParams{.name = "tiny2", .sizeBytes = 256, .assoc = 2,
                    .latency = 1, .mshrs = 2},
        // One 8-way set.
        CacheParams{.name = "tiny8", .sizeBytes = 512, .assoc = 8,
                    .latency = 1, .mshrs = 2},
        // Table I L1D.
        CacheParams{.name = "l1d", .sizeBytes = 32 * 1024, .assoc = 8,
                    .latency = 4, .mshrs = 64},
        // 2 sets x 24 ways.
        CacheParams{.name = "tiny24", .sizeBytes = 2 * 24 * 64, .assoc = 24,
                    .latency = 1, .mshrs = 2},
        // Table I L3.
        CacheParams{.name = "l3", .sizeBytes = 6 * 1024 * 1024,
                    .assoc = 24, .latency = 21, .mshrs = 64}),
    [](const ::testing::TestParamInfo<CacheParams> &info) {
        return info.param.name;
    });

TEST(StridePrefetcherTest, DetectsStrideAfterConfidence)
{
    StridePrefetcher pf(16);
    Addr pc = 0x400100;
    EXPECT_EQ(pf.observe(pc, 0x1000), 0u);
    EXPECT_EQ(pf.observe(pc, 0x1040), 0u); // stride learned.
    EXPECT_EQ(pf.observe(pc, 0x1080), 0u); // confidence building.
    Addr p3 = pf.observe(pc, 0x10c0);
    EXPECT_EQ(p3, 0x1100u); // confident: prefetch next.
}

TEST(StridePrefetcherTest, ResetOnStrideChange)
{
    StridePrefetcher pf(16);
    Addr pc = 0x400100;
    pf.observe(pc, 0x1000);
    pf.observe(pc, 0x1040);
    pf.observe(pc, 0x1080);
    EXPECT_NE(pf.observe(pc, 0x10c0), 0u);
    EXPECT_EQ(pf.observe(pc, 0x5000), 0u); // broken stride.
}

TEST(StreamPrefetcherTest, DetectsSequentialLines)
{
    StreamPrefetcher pf(4);
    EXPECT_EQ(pf.observe(0x10000), 0u);
    Addr p = pf.observe(0x10040); // next line: stream detected.
    EXPECT_EQ(p, 0x10080u);
}

TEST(Tlb, HitMissAndWalkLatency)
{
    Tlb tlb(4, 30);
    EXPECT_EQ(tlb.access(0x1000), 30u);
    EXPECT_EQ(tlb.access(0x1800), 0u); // same page.
    EXPECT_EQ(tlb.access(0x2000), 30u);
    EXPECT_EQ(tlb.misses.value(), 2u);
    EXPECT_EQ(tlb.hits.value(), 1u);
}

TEST(Tlb, LruReplacement)
{
    Tlb tlb(2, 30);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.access(0x1000); // refresh.
    tlb.access(0x3000); // evicts 0x2000.
    EXPECT_EQ(tlb.access(0x1000), 0u);
    EXPECT_EQ(tlb.access(0x2000), 30u);
}

TEST(DramTest, RowHitFasterThanRowMiss)
{
    Dram d;
    Cycle first = d.access(0x100000, 0);
    Cycle second = d.access(0x100040 + 2 * 64, first);
    (void)second;
    // Statistical check through counters on a same-row pair: access the
    // same address region twice through the same bank.
    Dram d2;
    Cycle a = d2.access(0x0, 0);
    Cycle b = d2.access(0x0, a + 1); // same row, bank reopened.
    EXPECT_LT(b - (a + 1), a - 0); // row hit latency < first access.
    EXPECT_GE(d2.rowHits.value(), 1u);
}

TEST(DramTest, MinLatencyInPaperBallpark)
{
    Dram d;
    // Min read ~36ns -> ~95-130 core cycles at 3.4GHz per Table I.
    EXPECT_GT(d.minLatency(), 60u);
    EXPECT_LT(d.minLatency(), 160u);
}

TEST(DramTest, BankParallelismBeatsSerialAccess)
{
    Dram d;
    // Two accesses to different banks issued together should overlap:
    // completion of the second is far less than 2x a full access.
    Cycle a = d.access(0x0, 0);
    Cycle b = d.access(0x40, 0); // next line -> other channel/bank.
    EXPECT_LT(b, a + a / 2);
}

TEST(Hierarchy, LatenciesMatchTableI)
{
    MemoryHierarchy mh;
    Addr addr = 0x100000;
    Cycle t0 = 1000;
    // Cold: full path to DRAM.
    Cycle cold = mh.load(0x400000, addr, t0);
    EXPECT_GT(cold - t0, 100u);
    // Warm L1: 4-cycle load-to-use (after the fill completes).
    Cycle warm = mh.load(0x400000, addr, cold + 10);
    EXPECT_EQ(warm - (cold + 10), 4u);
}

TEST(Hierarchy, L2AndL3HitLatencies)
{
    MemoryHierarchy mh;
    // Fill a line, then evict it from L1 by touching many lines
    // mapping to the same set; it should then hit in L2 at 12 cycles.
    Addr target = 0x500000;
    Cycle t = mh.load(0x400000, target, 0) + 100;
    // L1D: 32KB 8-way, 64 sets -> same-set lines are 4KB apart.
    for (int i = 1; i <= 9; ++i)
        t = std::max(t, mh.load(0x400000, target + i * 4096, t)) + 200;
    Cycle hit = mh.load(0x400000, target, t + 500);
    EXPECT_EQ(hit - (t + 500), 12u); // L2 latency (Table I).
}

TEST(Hierarchy, IfetchUsesItlbAndL1i)
{
    MemoryHierarchy mh;
    Addr pc = 0x400000;
    Cycle cold = mh.ifetch(pc, 100);
    EXPECT_GT(cold, 101u); // TLB walk + miss path.
    Cycle warm = mh.ifetch(pc, cold + 5);
    EXPECT_EQ(warm - (cold + 5), 1u); // 1-cycle L1I.
}

TEST(Hierarchy, StoreCommitAllocates)
{
    MemoryHierarchy mh;
    Addr addr = 0x700000;
    mh.storeCommit(addr, 100);
    // A shortly-following load to the line merges with the write fill.
    Cycle done = mh.load(0x400000, addr, 110);
    EXPECT_LT(done - 110, 300u);
}

TEST(StoreSetsTest, ViolationCreatesDependence)
{
    pred::StoreSets ss;
    Addr load_pc = 0x400100, store_pc = 0x400200;
    EXPECT_EQ(ss.loadRename(load_pc), 0u);
    ss.reportViolation(load_pc, store_pc);
    SeqNum dep = ss.storeRename(store_pc, 77);
    EXPECT_EQ(dep, 0u); // first store in the set.
    EXPECT_EQ(ss.loadRename(load_pc), 77u);
}

TEST(StoreSetsTest, StoreRetireClearsOwner)
{
    pred::StoreSets ss;
    Addr load_pc = 0x400100, store_pc = 0x400200;
    ss.reportViolation(load_pc, store_pc);
    ss.storeRename(store_pc, 10);
    ss.storeRetire(store_pc, 10);
    EXPECT_EQ(ss.loadRename(load_pc), 0u);
}

TEST(StoreSetsTest, StoreStoreOrderingWithinSet)
{
    pred::StoreSets ss;
    Addr load_pc = 0x400100, s1 = 0x400200, s2 = 0x400300;
    ss.reportViolation(load_pc, s1);
    ss.reportViolation(load_pc, s2); // merge into one set.
    ss.storeRename(s1, 5);
    SeqNum dep = ss.storeRename(s2, 9);
    EXPECT_EQ(dep, 5u); // second store ordered behind the first.
}

TEST(StoreSetsTest, MergeKeepsSmallerSsid)
{
    pred::StoreSets ss;
    ss.reportViolation(0x100, 0x200);
    ss.reportViolation(0x300, 0x400);
    // Merge the two sets via a cross violation.
    ss.reportViolation(0x100, 0x400);
    ss.storeRename(0x400, 21);
    EXPECT_EQ(ss.loadRename(0x100), 21u);
    EXPECT_EQ(ss.violations.value(), 3u);
}

} // namespace
} // namespace rsep
