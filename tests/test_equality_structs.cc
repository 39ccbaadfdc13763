/** @file Tests for the RSEP structures: hash, HRF, FIFO history, DDT,
 *  ISRB, zero predictor, distance predictor, cost model. */

#include <gtest/gtest.h>

#include "rsep/costmodel.hh"
#include "rsep/ddt.hh"
#include "rsep/distance_pred.hh"
#include "rsep/fifo_history.hh"
#include "rsep/hash.hh"
#include "rsep/hrf.hh"
#include "rsep/isrb.hh"
#include "rsep/zero_pred.hh"

namespace rsep::equality
{
namespace
{

TEST(FoldHash, MatchesPaperExample)
{
    // 14-bit fold, equal values hash equal; 0 != -1 (Section IV-A).
    EXPECT_EQ(foldHash(0x1234), foldHash(0x1234));
    EXPECT_NE(foldHash(0), foldHash(~u64{0}));
    EXPECT_LE(foldHash(~u64{0}), mask(14));
}

TEST(Hrf, MirrorsPrfWrites)
{
    HashRegisterFile hrf(470, 14);
    hrf.write(3, 0x1abc);
    EXPECT_EQ(hrf.read(3), 0x1abc);
    EXPECT_EQ(hrf.read(4), 0u);
    EXPECT_EQ(hrf.writes.value(), 1u);
    EXPECT_EQ(hrf.reads.value(), 2u);
    EXPECT_EQ(hrf.storageBits(), 470u * 14);
}

TEST(CsnArithmetic, WraparoundDistance)
{
    EXPECT_EQ(csnDistance(5, 3), 2u);
    EXPECT_EQ(csnDistance(3, 1020), 7u); // wrapped young CSN.
    EXPECT_EQ(csnDistance(0, csnMask), 1u);
}

TEST(FifoHistory, NearestMatchWins)
{
    FifoHistory f(16);
    f.push(100, 1, 1, 0xaaaa);
    f.push(200, 2, 2, 0xbbbb);
    f.push(100, 3, 3, 0xaaaa);
    auto m = f.match(100, 5, std::nullopt);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->distance, 2u); // csn 3 is nearer than csn 1.
    EXPECT_EQ(m->producerSeq, 3u);
}

TEST(FifoHistory, PredictedDistancePreferred)
{
    // Section VI-A2: with the propagated predicted distance, the match
    // at that distance wins over the nearest one.
    FifoHistory f(16);
    f.push(100, 1, 1, 0x1);
    f.push(100, 3, 3, 0x2);
    auto m = f.match(100, 5, 4u); // prefers csn 1 (distance 4).
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->matchedPredicted);
    EXPECT_EQ(m->distance, 4u);
    EXPECT_EQ(f.predictedDistanceMatches.value(), 1u);
}

TEST(FifoHistory, SelfAndWrappedEntriesIgnored)
{
    FifoHistory f(16);
    f.push(100, 7, 1, 0x1);
    // Same CSN (distance 0 = own entry): no match.
    EXPECT_FALSE(f.match(100, 7, std::nullopt).has_value());
    // An entry "younger" than the prober (wrapped distance beyond half
    // the CSN space): ignored.
    FifoHistory g(16);
    g.push(100, 250, 1, 0x1);
    EXPECT_FALSE(g.match(100, 200, std::nullopt).has_value());
}

TEST(FifoHistory, DepthEviction)
{
    FifoHistory f(4);
    for (u32 i = 0; i < 6; ++i)
        f.push(50 + i, i, i);
    EXPECT_EQ(f.size(), 4u);
    // Oldest (hash 50, 51) evicted.
    EXPECT_FALSE(f.match(50, 10, std::nullopt).has_value());
    EXPECT_TRUE(f.match(53, 10, std::nullopt).has_value());
}

TEST(FifoHistory, ComparisonCountingForPowerStudy)
{
    FifoHistory f(8);
    for (u32 i = 0; i < 8; ++i)
        f.push(i, i, i);
    u64 before = f.comparisons.value();
    f.match(99, 20, std::nullopt); // no match: compares all 8.
    EXPECT_EQ(f.comparisons.value() - before, 8u);
}

/**
 * The linear newest-to-oldest scan FifoHistory::match used before the
 * hash-chained index: the reference the index must agree with, result
 * for result and counter for counter.
 */
class ScanFifo
{
  public:
    explicit ScanFifo(unsigned depth) : ring(depth), cap(depth) {}

    void
    clear()
    {
        head = 0;
        valid = 0;
    }

    void
    push(u16 hash, u32 csn, u64 seq, u64 value)
    {
        ring[head] = {hash, csn & csnMask, seq, value};
        head = (head + 1) % cap;
        if (valid < cap)
            ++valid;
    }

    std::optional<HistoryMatch>
    match(u16 hash, u32 csn, std::optional<u32> predicted_dist)
    {
        std::optional<HistoryMatch> nearest;
        for (size_t i = 0; i < valid; ++i) {
            const Entry &e = ring[(head + cap - 1 - i) % cap];
            ++comparisons;
            if (e.hash != hash)
                continue;
            u32 dist = csnDistance(csn & csnMask, e.csn);
            if (dist == 0 || dist > csnMask / 2)
                continue;
            if (predicted_dist && dist == *predicted_dist) {
                ++matches;
                ++predictedDistanceMatches;
                return HistoryMatch{dist, e.seq, e.value, true};
            }
            if (!nearest)
                nearest = HistoryMatch{dist, e.seq, e.value, false};
            else if (!predicted_dist)
                break;
        }
        if (nearest)
            ++matches;
        return nearest;
    }

    unsigned size() const { return static_cast<unsigned>(valid); }

    u64 comparisons = 0;
    u64 matches = 0;
    u64 predictedDistanceMatches = 0;

  private:
    struct Entry
    {
        u16 hash = 0;
        u32 csn = 0;
        u64 seq = 0;
        u64 value = 0;
    };

    std::vector<Entry> ring;
    size_t cap;
    size_t head = 0;
    size_t valid = 0;
};

class FifoIndexVsScan : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FifoIndexVsScan, SameMatchesAndCounters)
{
    unsigned depth = GetParam();
    FifoHistory f(depth);
    ScanFifo ref(depth);
    Rng rng(depth * 2);
    std::vector<u32> lastDist(8, 0); // per hash class, like the engine's
                                     // propagated predicted distance.
    u32 csn = 0;
    u64 clears = 0;

    auto probe = [&](u16 hash) {
        std::optional<u32> pdist;
        switch (rng.below(3)) {
          case 0:
            break;
          case 1: // almost always misses: the walk runs to its end.
            pdist = 1 + static_cast<u32>(rng.below(csnMask / 2));
            break;
          default:
            if (lastDist[hash & 7])
                pdist = lastDist[hash & 7];
        }
        auto got = f.match(hash, csn, pdist);
        auto want = ref.match(hash, csn, pdist);
        ASSERT_EQ(got.has_value(), want.has_value()) << "csn " << csn;
        if (got) {
            EXPECT_EQ(got->distance, want->distance);
            EXPECT_EQ(got->producerSeq, want->producerSeq);
            EXPECT_EQ(got->producerValue, want->producerValue);
            EXPECT_EQ(got->matchedPredicted, want->matchedPredicted);
            lastDist[hash & 7] = got->distance;
        }
        EXPECT_EQ(f.comparisons.value(), ref.comparisons);
        EXPECT_EQ(f.matches.value(), ref.matches);
        EXPECT_EQ(f.predictedDistanceMatches.value(),
                  ref.predictedDistanceMatches);
    };

    for (u64 step = 0; step < 30000 && !HasFailure(); ++step) {
        // Skewed hashes: half share four values (long equal-hash
        // chains); the rest spread over 14 bits and collide in the
        // index buckets without being equal.
        u16 hash = static_cast<u16>(rng.chance(1, 2) ? rng.below(4)
                                                     : rng.below(1u << 14));
        // Gaps stand for commits that produce no register (the history
        // never sees them); CSNs wrap past 1024 many times.
        csn += 1 + static_cast<u32>(rng.chance(1, 8) ? rng.below(16) : 0);
        // Probing after the push sees the own entry (distance 0).
        bool probe_after_push = rng.chance(1, 2);
        if (!probe_after_push)
            probe(hash);
        f.push(hash, csn, step, hash ^ 0x5a5a);
        ref.push(hash, csn, step, hash ^ 0x5a5a);
        if (probe_after_push)
            probe(hash);
        if (rng.chance(1, 5000)) {
            f.clear();
            ref.clear();
            ++clears;
        }
        ASSERT_EQ(f.size(), ref.size());
    }
    EXPECT_GT(clears, 0u);
    EXPECT_GT(ref.predictedDistanceMatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Depths, FifoIndexVsScan,
                         ::testing::Values(1u, 4u, 100u, 128u, 1024u));

TEST(FifoHistory, StorageMatchesPaper)
{
    // 128 entries x (14-bit hash + 10-bit CSN) = 384 bytes (VI-A2).
    FifoHistory f(128);
    EXPECT_EQ(f.storageBits(14), 128u * 24);
    EXPECT_EQ(f.storageBits(14) / 8, 384u);
}

TEST(Ddt, MatchAndDistance)
{
    Ddt ddt(256);
    EXPECT_FALSE(ddt.accessAndUpdate(10, 100, 1).has_value());
    auto m = ddt.accessAndUpdate(10, 105, 2);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->distance, 5u);
    EXPECT_EQ(m->producerSeq, 1u);
}

TEST(Ddt, OnlyMostRecentKept)
{
    Ddt ddt(256);
    ddt.accessAndUpdate(10, 100, 1);
    ddt.accessAndUpdate(10, 110, 2);
    auto m = ddt.accessAndUpdate(10, 115, 3);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->distance, 5u); // vs seq 2, not seq 1.
}

TEST(Ddt, HashCollisionsProduceFalsePairs)
{
    // The DDT is value-hash indexed: different hashes colliding on an
    // entry index alias (paper's "per chance" noise exists by design).
    Ddt ddt(16);
    ddt.accessAndUpdate(0x11, 100, 1);
    auto m = ddt.accessAndUpdate(0x21, 103, 2); // same index mod 16.
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->distance, 3u);
}

// ------------------------------- ISRB --------------------------------

TEST(IsrbTest, ShareReleaseLifecycle)
{
    Isrb isrb(4);
    EXPECT_FALSE(isrb.isShared(7));
    EXPECT_TRUE(isrb.share(7));    // producer + 1 sharer.
    EXPECT_TRUE(isrb.isShared(7));
    EXPECT_EQ(isrb.liveMappings(7), 2u);
    EXPECT_EQ(isrb.release(7), IsrbRelease::StillLive);
    EXPECT_EQ(isrb.release(7), IsrbRelease::Freed);
    EXPECT_FALSE(isrb.isShared(7));
}

TEST(IsrbTest, UnsharedReleaseReportsNotShared)
{
    Isrb isrb(4);
    EXPECT_EQ(isrb.release(3), IsrbRelease::NotShared);
}

TEST(IsrbTest, MultipleSharers)
{
    Isrb isrb(4);
    isrb.share(9);
    isrb.share(9);
    isrb.share(9); // 1 producer + 3 sharers.
    EXPECT_EQ(isrb.liveMappings(9), 4u);
    EXPECT_EQ(isrb.release(9), IsrbRelease::StillLive);
    EXPECT_EQ(isrb.release(9), IsrbRelease::StillLive);
    EXPECT_EQ(isrb.release(9), IsrbRelease::StillLive);
    EXPECT_EQ(isrb.release(9), IsrbRelease::Freed);
}

TEST(IsrbTest, CapacityRefusal)
{
    Isrb isrb(2);
    EXPECT_TRUE(isrb.share(1));
    EXPECT_TRUE(isrb.share(2));
    EXPECT_FALSE(isrb.share(3)); // full: no sharing (paper IV-E2).
    EXPECT_EQ(isrb.shareRefusalsFull.value(), 1u);
    EXPECT_EQ(isrb.entriesInUse(), 2u);
}

TEST(IsrbTest, CounterOverflowRefusal)
{
    Isrb isrb(2, 2); // 2-bit counters: max 3 references.
    EXPECT_TRUE(isrb.share(5));
    EXPECT_TRUE(isrb.share(5));
    EXPECT_FALSE(isrb.share(5)); // would exceed the counter.
    EXPECT_EQ(isrb.shareRefusalsOverflow.value(), 1u);
}

TEST(IsrbTest, SquashSharerDropsEntryWhenUnshared)
{
    Isrb isrb(4);
    isrb.share(3);
    EXPECT_EQ(isrb.squashSharer(3), IsrbRelease::StillLive);
    // Back to one (producer) mapping: entry dropped, register not
    // freed (it is still architecturally mapped).
    EXPECT_FALSE(isrb.isShared(3));
}

TEST(IsrbTest, SquashAfterProducerReleaseFrees)
{
    Isrb isrb(4);
    isrb.share(3);                 // refs: producer + sharer.
    EXPECT_EQ(isrb.release(3), IsrbRelease::StillLive); // producer gone.
    EXPECT_EQ(isrb.squashSharer(3), IsrbRelease::Freed); // sharer squashed.
}

TEST(IsrbTest, CheckpointRestoreRevertsSpeculativeSharers)
{
    Isrb isrb(4);
    isrb.share(6); // pre-checkpoint sharer.
    Isrb::Checkpoint cp = isrb.checkpoint();
    isrb.share(6);
    isrb.share(6); // speculative sharers.
    EXPECT_EQ(isrb.liveMappings(6), 4u);
    auto freed = isrb.restore(cp);
    EXPECT_TRUE(freed.empty());
    EXPECT_EQ(isrb.liveMappings(6), 2u);
}

TEST(IsrbTest, CheckpointRestoreFreesFullyCommittedEntry)
{
    // Paper: on restore, an entry whose committed count now covers its
    // references frees the register.
    Isrb isrb(4);
    isrb.share(8);
    Isrb::Checkpoint cp = isrb.checkpoint();
    isrb.share(8);                 // speculative sharer.
    isrb.release(8);               // producer mapping commits+releases.
    isrb.release(8);               // pre-checkpoint sharer releases.
    auto freed = isrb.restore(cp); // speculative sharer undone.
    ASSERT_EQ(freed.size(), 1u);
    EXPECT_EQ(freed[0], 8);
    EXPECT_FALSE(isrb.isShared(8));
}

TEST(IsrbTest, RestoreDropsEntriesAllocatedAfterCheckpoint)
{
    Isrb isrb(4);
    Isrb::Checkpoint cp = isrb.checkpoint();
    isrb.share(2); // allocated entirely after the checkpoint.
    auto freed = isrb.restore(cp);
    EXPECT_TRUE(freed.empty());
    EXPECT_FALSE(isrb.isShared(2));
}

TEST(IsrbTest, StorageIs63BytesFor24Entries)
{
    // Paper Section VI-B: 24 entries of two 6-bit counters tagged by
    // the preg id ~= 63 bytes.
    Isrb isrb(24, 6);
    EXPECT_EQ(isrb.storageBits(), 24u * (12 + 9));
    EXPECT_NEAR(isrb.storageBits() / 8.0, 63.0, 1.0);
}

class IsrbSizes : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(IsrbSizes, ConservationUnderRandomWorkload)
{
    // Property: for any entry, releases+squashes never exceed shares+1,
    // and freed entries disappear.
    Isrb isrb(GetParam());
    Rng rng(GetParam() * 7 + 1);
    std::vector<int> live(64, 0); // live mappings per preg (sim side).
    for (int step = 0; step < 20000; ++step) {
        PhysReg p = static_cast<PhysReg>(1 + rng.below(63));
        if (rng.chance(1, 2)) {
            if (isrb.share(p))
                live[p] = live[p] ? live[p] + 1 : 2;
        } else if (live[p] > 0) {
            IsrbRelease r = isrb.release(p);
            ASSERT_NE(r, IsrbRelease::NotShared);
            --live[p];
            if (live[p] == 0) {
                ASSERT_EQ(r, IsrbRelease::Freed);
            }
        }
        ASSERT_LE(isrb.entriesInUse(), isrb.capacity());
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IsrbSizes,
                         ::testing::Values(2u, 8u, 24u, 64u));

/**
 * The ISRB as a first-fit, linearly scanned table: the reference the
 * indexed Isrb must agree with call for call, slot order included.
 */
class LinearIsrb
{
  public:
    LinearIsrb(unsigned entries, unsigned counter_bits)
        : table(entries), counterMax(static_cast<u8>(mask(counter_bits)))
    {}

    bool
    share(PhysReg preg)
    {
        if (Entry *e = find(preg)) {
            if (e->referenced >= counterMax)
                return false;
            ++e->referenced;
            return true;
        }
        for (Entry &e : table) {
            if (!e.valid) {
                e = Entry{true, preg, 2, 0};
                return true;
            }
        }
        return false;
    }

    IsrbRelease
    release(PhysReg preg)
    {
        Entry *e = find(preg);
        if (!e)
            return IsrbRelease::NotShared;
        if (++e->committed == e->referenced) {
            *e = Entry{};
            return IsrbRelease::Freed;
        }
        return IsrbRelease::StillLive;
    }

    IsrbRelease
    squashSharer(PhysReg preg)
    {
        Entry *e = find(preg);
        --e->referenced;
        if (e->committed == e->referenced) {
            *e = Entry{};
            return IsrbRelease::Freed;
        }
        if (e->referenced == 1 && e->committed == 0)
            *e = Entry{};
        return IsrbRelease::StillLive;
    }

    unsigned
    liveMappings(PhysReg preg)
    {
        const Entry *e = find(preg);
        return e ? static_cast<unsigned>(e->referenced - e->committed) : 0;
    }

    Isrb::Checkpoint
    checkpoint() const
    {
        Isrb::Checkpoint cp;
        for (const Entry &e : table)
            if (e.valid)
                cp.referenced.push_back({e.preg, e.referenced});
        return cp;
    }

    std::vector<PhysReg>
    restore(const Isrb::Checkpoint &cp)
    {
        std::vector<PhysReg> freed;
        for (Entry &e : table) {
            if (!e.valid)
                continue;
            e.referenced = 1;
            for (const auto &[preg, referenced] : cp.referenced)
                if (preg == e.preg)
                    e.referenced = referenced;
            if (e.committed >= e.referenced) {
                freed.push_back(e.preg);
                e = Entry{};
            } else if (e.referenced == 1 && e.committed == 0) {
                e = Entry{};
            }
        }
        return freed;
    }

    unsigned
    entriesInUse() const
    {
        unsigned n = 0;
        for (const Entry &e : table)
            n += e.valid;
        return n;
    }

  private:
    struct Entry
    {
        bool valid = false;
        PhysReg preg = invalidPhysReg;
        u8 referenced = 0;
        u8 committed = 0;
    };

    Entry *
    find(PhysReg preg)
    {
        for (Entry &e : table)
            if (e.valid && e.preg == preg)
                return &e;
        return nullptr;
    }

    std::vector<Entry> table;
    u8 counterMax;
};

class IsrbIndexVsScan : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(IsrbIndexVsScan, SameOutcomesAndSlotOrder)
{
    // Seeded random share/release/squash/checkpoint-restore sequences;
    // 24 entries is the paper's ISRB, 512 the rsep-oracle arm's. The
    // preg range exceeds the capacity so the buffer fills and refuses.
    const unsigned entries = GetParam();
    const unsigned pregs = entries * 2 + 8;
    for (u64 seed = 1; seed <= 4; ++seed) {
        Isrb isrb(entries, 6);
        LinearIsrb ref(entries, 6);
        Rng rng(seed * 1000 + entries);
        std::vector<Isrb::Checkpoint> cps;
        for (int step = 0; step < 30000; ++step) {
            const auto p = static_cast<PhysReg>(1 + rng.below(pregs));
            // Alternate share-heavy phases, which fill the buffer, with
            // release-heavy ones, which drain it. Restores are rare: one
            // to an old checkpoint drops most entries.
            const u64 shares = (step / 3000) % 2 ? 25 : 70;
            const u64 op = rng.below(1000);
            if (op < 10 * shares) {
                ASSERT_EQ(isrb.share(p), ref.share(p)) << step;
            } else if (op < 850) {
                // Releasing an unshared preg is the common commit case.
                ASSERT_EQ(isrb.release(p), ref.release(p)) << step;
            } else if (op < 990) {
                if (ref.liveMappings(p) == 0)
                    continue; // squashSharer needs a sharer to undo.
                ASSERT_EQ(isrb.squashSharer(p), ref.squashSharer(p)) << step;
            } else if (op < 997 || cps.empty()) {
                cps.push_back(ref.checkpoint());
            } else {
                const Isrb::Checkpoint &cp = cps[rng.below(cps.size())];
                ASSERT_EQ(isrb.restore(cp), ref.restore(cp)) << step;
            }
            ASSERT_EQ(isrb.entriesInUse(), ref.entriesInUse()) << step;
            ASSERT_EQ(isrb.isShared(p), ref.liveMappings(p) != 0) << step;
            ASSERT_EQ(isrb.liveMappings(p), ref.liveMappings(p)) << step;
            if (step % 64 == 0) {
                // Same entries in the same slots.
                ASSERT_EQ(isrb.checkpoint().referenced,
                          ref.checkpoint().referenced)
                    << step;
            }
        }
        EXPECT_GT(isrb.shareRefusalsFull.value(), 0u) << seed;
        EXPECT_GT(isrb.entriesFreed.value(), 0u) << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(PaperAndOracleSizes, IsrbIndexVsScan,
                         ::testing::Values(24u, 512u));

// --------------------------- zero predictor ---------------------------

TEST(ZeroPred, SaturatesOnAlwaysZero)
{
    ZeroPredictor zp;
    Rng rng(3);
    Addr pc = 0x400100;
    for (int i = 0; i < 255; ++i) {
        EXPECT_FALSE(zp.predict(pc));
        zp.update(pc, true, &rng);
    }
    EXPECT_TRUE(zp.predict(pc));
    zp.update(pc, false, &rng);
    EXPECT_FALSE(zp.predict(pc)); // reset on non-zero.
}

TEST(ZeroPred, IntermittentZeroNeverPredicts)
{
    ZeroPredictor zp;
    Rng rng(4);
    Addr pc = 0x400200;
    for (int i = 0; i < 5000; ++i)
        zp.update(pc, i % 3 != 0, &rng);
    EXPECT_FALSE(zp.predict(pc));
}

// -------------------------- distance predictor ------------------------

TEST(DistancePred, PaperStorageNumbers)
{
    // Section IV-C: 42.6KB ideal; Section VI-B: ~10.1KB realistic.
    DistancePredictor ideal(DistancePredictorParams::ideal());
    DistancePredictor real(DistancePredictorParams::realistic());
    EXPECT_NEAR(ideal.storageBits() / 8.0 / 1024.0, 42.6, 0.5);
    EXPECT_NEAR(real.storageBits() / 8.0 / 1024.0, 10.1, 0.5);
}

TEST(DistancePred, LearnsStableDistance)
{
    DistancePredictor dp;
    pred::GlobalHist h;
    Addr pc = 0x400300;
    for (int i = 0; i < 300; ++i) {
        DistLookup lk = dp.lookup(pc, h);
        dp.train(lk, 7);
    }
    DistLookup lk = dp.lookup(pc, h);
    EXPECT_TRUE(lk.usePred);
    EXPECT_EQ(lk.distance, 7u);
}

TEST(DistancePred, ZeroDistanceNeverUsable)
{
    DistancePredictor dp;
    pred::GlobalHist h;
    Addr pc = 0x400400;
    for (int i = 0; i < 300; ++i) {
        DistLookup lk = dp.lookup(pc, h);
        dp.train(lk, 0); // "no pair found" training.
    }
    EXPECT_FALSE(dp.lookup(pc, h).usePred);
}

TEST(DistancePred, TrainIncorrectCollapsesConfidence)
{
    DistancePredictor dp;
    pred::GlobalHist h;
    Addr pc = 0x400500;
    for (int i = 0; i < 300; ++i) {
        DistLookup lk = dp.lookup(pc, h);
        dp.train(lk, 5);
    }
    DistLookup lk = dp.lookup(pc, h);
    ASSERT_TRUE(lk.usePred);
    dp.trainIncorrect(lk);
    EXPECT_FALSE(dp.lookup(pc, h).usePred);
}

// ------------------------------ cost model ----------------------------

TEST(CostModel, PaperTotals)
{
    // Realistic config: ~10.8KB total excluding the HRF (Section VI-B).
    RsepConfig cfg = RsepConfig::realistic();
    RsepStorage s = computeStorage(cfg, 470, 192);
    EXPECT_NEAR(s.predictorKB, 10.1, 0.3);
    EXPECT_NEAR(s.fifoHistoryB, 384.0, 1.0);
    EXPECT_NEAR(s.distanceFifoB, 224.0, 1.0);
    EXPECT_NEAR(s.isrbB, 63.0, 1.0);
    EXPECT_NEAR(s.totalKB, 10.8, 0.3);
}

TEST(CostModel, FifoTermMatchesFifoHistory)
{
    // One storage formula: the cost model's FIFO term (hash + CSN per
    // entry) is what the history itself reports.
    RsepConfig cfg = RsepConfig::realistic();
    FifoHistory f(cfg.historyDepth);
    RsepStorage s = computeStorage(cfg, 470, 192);
    EXPECT_EQ(s.fifoHistoryB, f.storageBits(cfg.hashBits) / 8.0);
}

TEST(CostModel, IdealPredictorIs42KB)
{
    RsepConfig cfg = RsepConfig::idealLarge();
    RsepStorage s = computeStorage(cfg, 470, 192);
    EXPECT_NEAR(s.predictorKB, 42.6, 0.5);
}

TEST(CostModel, FifoComparatorsMatchPaper)
{
    // Section IV-B2: 256-entry FIFO at commit width 8 -> 2076.
    EXPECT_EQ(fifoComparators(256, 8), 2076u);
    // Section VI-A2: 128-entry FIFO -> 1024 + 28.
    EXPECT_EQ(fifoComparators(128, 8), 1052u);
}

TEST(CostModel, HrfAreaUnderFivePercent)
{
    // Section IV-D1: banked 14-bit HRF vs 64-bit 16R/8W PRF.
    double frac = hrfAreaFraction(16, 8, 64, 8, 8, 14);
    EXPECT_LT(frac, 0.05);
    EXPECT_GT(frac, 0.0);
}

TEST(CostModel, DescribeMentionsComponents)
{
    std::string d = describeStorage(RsepConfig::realistic(), 470, 192);
    EXPECT_NE(d.find("distance predictor"), std::string::npos);
    EXPECT_NE(d.find("ISRB"), std::string::npos);
    EXPECT_NE(d.find("HRF"), std::string::npos);
}

} // namespace
} // namespace rsep::equality
