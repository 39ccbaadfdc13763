/**
 * @file
 * Equivalence pins for the PR 6 predictor hot path:
 *  - incremental folded-history registers (GeoFolds) vs from-scratch
 *    xorFold over every (history length, fold width) geometry the
 *    predictors register, across inserts and squash restores;
 *  - Tage folded predict/update vs the from-scratch overloads;
 *  - ItageTable folded lookup vs the from-scratch overload;
 *  - ValueEqIndex + dense producer ordinals vs the reference
 *    youngest-first ROB walk of the oracle equality engine.
 */

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "core/value_index.hh"
#include "pred/ghist.hh"
#include "pred/tage.hh"
#include "rsep/distance_pred.hh"

namespace rsep::pred
{
namespace
{

TEST(GeoFolds, MatchesFromScratchAcrossInsertsAndRestores)
{
    // Every geometry the repo's predictors use, plus edge cases:
    // len < bits, len == bits, len == 64, full-width fold, 1-bit fold.
    GeoFoldSpec spec;
    TageParams tp;
    for (unsigned c = 0; c < tp.numTagged; ++c) {
        spec.require(tp.histLens[c], tp.taggedBits);
        spec.require(tp.histLens[c], tp.tagBits[c]);
    }
    for (unsigned len : {2u, 4u, 8u, 16u, 32u, 64u}) {
        for (unsigned bits : {5u, 9u, 10u, 13u, 18u})
            spec.require(len, bits);
    }
    spec.require(0, 8);   // empty window: fold pinned to 0.
    spec.require(1, 8);   // single-bit window.
    spec.require(3, 8);   // len < bits.
    spec.require(9, 9);   // len == bits.
    spec.require(64, 64); // full-width identity fold.
    spec.require(63, 2);  // narrow fold, maximal chunk count.
    spec.require(1, 1);   // 1-bit fold: the rotate is the identity.
    spec.require(17, 1);  // 1-bit fold of a window: its parity.
    spec.require(64, 1);  // 1-bit fold of a full-width window.

    GeoFolds folds;
    folds.bind(&spec);
    GlobalHist h;
    Rng rng(0x600d);
    std::vector<GlobalHist> snaps;

    for (int step = 0; step < 20000; ++step) {
        if (rng.chance(1, 50) && !snaps.empty()) {
            // Squash restore: rewind to an arbitrary snapshot.
            h = snaps[rng.below(snaps.size())];
            folds.recompute(h.dir);
        } else {
            if (rng.chance(1, 100))
                snaps.push_back(h);
            bool taken = rng.chance(1, 2);
            Addr pc = 0x400000 + (rng.below(4096) << 2);
            folds.insertDir(taken, h.dir);
            h.insert(taken, pc);
        }
        for (unsigned i = 0; i < spec.size(); ++i) {
            const auto &sl = spec.slots()[i];
            u64 expect = sl.len == 0
                ? 0
                : xorFold(h.dir & mask(sl.len), sl.bits);
            ASSERT_EQ(folds.fold(i), expect)
                << "slot " << i << " len=" << sl.len
                << " bits=" << sl.bits << " at step " << step;
        }
    }
}

TEST(GeoFolds, FoldedHashesMatchUnfolded)
{
    GlobalHist h;
    Rng rng(0xf01d);
    for (int step = 0; step < 5000; ++step) {
        h.insert(rng.chance(1, 2), 0x400000 + (rng.below(1024) << 2));
        if (rng.chance(1, 4))
            h.insertPath(0x500000 + (rng.below(1024) << 2));
        Addr pc = 0x400000 + (rng.below(4096) << 2);
        for (unsigned len : {0u, 2u, 5u, 16u, 33u, 64u}) {
            for (unsigned bits : {9u, 10u, 13u}) {
                u64 df = len == 0 ? 0 : xorFold(h.dir & mask(len), bits);
                ASSERT_EQ(geoIndexFolded(pc, df, h.path, len, bits),
                          geoIndex(pc, h, len, bits));
                ASSERT_EQ(geoTagFolded(pc, df, bits),
                          geoTag(pc, h, len, bits));
            }
        }
    }
}

TEST(Tage, FoldedPathIsByteIdenticalToScratch)
{
    // Two identically seeded instances, one driven through the folded
    // overloads, one through the from-scratch overloads, over a random
    // branch stream with squash restores: every prediction must agree
    // (identical indices => identical table evolution, both rngs
    // consume the same allocation rolls).
    Tage a, b;
    GeoFoldSpec spec;
    a.registerFolds(spec);
    GeoFolds folds;
    folds.bind(&spec);
    GlobalHist h;
    Rng rng(0x7a6e);
    std::vector<GlobalHist> snaps;

    for (int step = 0; step < 30000; ++step) {
        if (rng.chance(1, 200) && !snaps.empty()) {
            h = snaps[rng.below(snaps.size())];
            folds.recompute(h.dir);
        } else if (rng.chance(1, 100)) {
            snaps.push_back(h);
        }
        Addr pc = 0x400000 + (rng.below(256) << 2);
        // Correlated outcome so tagged components allocate and match.
        bool taken = ((h.dir & 5) == 1) || rng.chance(1, 7);

        TageLookup la = a.predict(pc, h, folds);
        TageLookup lb = b.predict(pc, h);
        ASSERT_EQ(la.pred, lb.pred) << "step " << step;
        ASSERT_EQ(la.altPred, lb.altPred) << "step " << step;
        ASSERT_EQ(la.provider, lb.provider) << "step " << step;
        ASSERT_EQ(la.altProvider, lb.altProvider) << "step " << step;
        ASSERT_EQ(la.providerWeak, lb.providerWeak) << "step " << step;
        // The carried indices/tags (what commit-time update consumes)
        // must also agree between the folded and scratch hash paths.
        for (unsigned c = 0; c < 12; ++c) {
            ASSERT_EQ(la.idx[c], lb.idx[c]) << "step " << step << " c " << c;
            ASSERT_EQ(la.tag[c], lb.tag[c]) << "step " << step << " c " << c;
        }

        a.update(la, pc, taken);
        b.update(lb, pc, taken);
        folds.insertDir(taken, h.dir);
        h.insert(taken, pc);
        if (rng.chance(1, 8))
            h.insertPath(0x500000 + (rng.below(256) << 2));
    }
}

TEST(Itage, FoldedLookupIsByteIdenticalToScratch)
{
    auto params = equality::DistancePredictorParams::ideal().itage;
    ItageTable table(params, 42);
    GeoFoldSpec spec;
    table.registerFolds(spec);
    GeoFolds folds;
    folds.bind(&spec);
    GlobalHist h;
    Rng rng(0x17a6);

    for (int step = 0; step < 20000; ++step) {
        Addr pc = 0x400000 + (rng.below(512) << 2);
        ItageLookup la = table.lookup(pc, h, folds);
        ItageLookup lb = table.lookup(pc, h);
        ASSERT_EQ(la.provider, lb.provider) << "step " << step;
        ASSERT_EQ(la.payload, lb.payload) << "step " << step;
        ASSERT_EQ(la.confidence, lb.confidence) << "step " << step;
        ASSERT_EQ(la.confident, lb.confident) << "step " << step;
        ASSERT_EQ(la.altValid, lb.altValid) << "step " << step;
        ASSERT_EQ(la.altPayload, lb.altPayload) << "step " << step;
        ASSERT_EQ(la.baseIdx, lb.baseIdx) << "step " << step;
        for (unsigned c = 0; c < params.numTagged; ++c) {
            ASSERT_EQ(la.idx[c], lb.idx[c]) << "step " << step;
            ASSERT_EQ(la.tag[c], lb.tag[c]) << "step " << step;
        }
        // Train so tagged components populate and the match loop is
        // exercised with hits, then advance the history.
        table.update(lb, rng.below(200), true);
        bool taken = rng.chance(1, 2);
        folds.insertDir(taken, h.dir);
        h.insert(taken, pc);
        if (rng.chance(1, 4))
            h.insertPath(0x500000 + (rng.below(512) << 2));
    }
}

} // namespace
} // namespace rsep::pred

namespace rsep::core
{
namespace
{

/** Minimal in-ROB instruction model for the walk-vs-index pin. */
struct RefInst
{
    u64 seq;
    bool producer;
    u64 value;
    u64 ord; // producer ordinal (valid when producer).
};

/** Deterministic stand-in for the ISRB share() refusal. */
bool
refuses(u64 seq)
{
    u64 x = seq * 0x9e3779b97f4a7c15ull;
    return ((x >> 13) & 7) == 0; // ~1/8 of producers refuse.
}

/** Reference: the oracle engine's original youngest-first ROB walk. */
std::optional<u64>
walkReference(const std::deque<RefInst> &rob, u64 probe_value,
              u64 window, u64 *refused_out)
{
    u64 producers_seen = 0;
    for (size_t i = rob.size(); i-- > 0;) {
        const RefInst &p = rob[i];
        if (!p.producer)
            continue;
        if (window && ++producers_seen > window)
            break;
        if (p.value != probe_value)
            continue;
        if (refuses(p.seq)) {
            ++*refused_out;
            continue;
        }
        return p.seq;
    }
    return std::nullopt;
}

/** The engine's indexed scan (oracle_eq_engine.cc, index path). */
std::optional<u64>
scanIndexed(const ValueEqIndex &vidx, u64 next_ord, u64 probe_value,
            u64 window, u64 *refused_out)
{
    const u64 floor_ord =
        (window && next_ord > window) ? next_ord - window : 0;
    if (const auto *prods = vidx.find(probe_value)) {
        for (size_t i = prods->size(); i-- > 0;) {
            const ValueEqIndex::Prod &pe = (*prods)[i];
            if (pe.ord < floor_ord)
                break;
            if (refuses(pe.seq)) {
                ++*refused_out;
                continue;
            }
            return pe.seq;
        }
    }
    return std::nullopt;
}

TEST(ValueEqIndex, MatchesReferenceWalkUnderRenameCommitSquash)
{
    for (u64 window : {u64{0}, u64{4}, u64{32}, u64{1024}}) {
        ValueEqIndex vidx;
        std::deque<RefInst> rob;
        u64 next_seq = 0, next_ord = 0;
        Rng rng(0xacc0 + window);

        for (int step = 0; step < 40000; ++step) {
            unsigned op = rng.below(100);
            if (op < 55) {
                // Rename: ~3/4 of instructions produce a register.
                RefInst inst{next_seq++, rng.below(4) != 0,
                             rng.below(24), 0};
                if (inst.producer) {
                    inst.ord = next_ord++;
                    vidx.add(inst.value, inst.seq, inst.ord);
                }
                rob.push_back(inst);
            } else if (op < 80) {
                if (!rob.empty()) { // commit oldest.
                    const RefInst &oldest = rob.front();
                    if (oldest.producer)
                        vidx.remove(oldest.value, oldest.seq);
                    rob.pop_front();
                }
            } else if (op < 90) {
                // Squash a random young suffix (young -> old, with the
                // ordinal rollback the pipeline performs).
                size_t k = rob.empty() ? 0 : rng.below(rob.size()) + 1;
                for (size_t n = 0; n < k; ++n) {
                    const RefInst &young = rob.back();
                    if (young.producer) {
                        auto ord = vidx.remove(young.value, young.seq);
                        ASSERT_TRUE(ord.has_value());
                        next_ord = *ord;
                    }
                    rob.pop_back();
                }
            } else {
                // Probe: a hypothetical renaming instruction.
                u64 v = rng.below(24);
                u64 ref_refused = 0, idx_refused = 0;
                auto ref =
                    walkReference(rob, v, window, &ref_refused);
                auto idx = scanIndexed(vidx, next_ord, v, window,
                                       &idx_refused);
                ASSERT_EQ(ref.has_value(), idx.has_value())
                    << "window " << window << " step " << step;
                if (ref) {
                    ASSERT_EQ(*ref, *idx)
                        << "window " << window << " step " << step;
                }
                ASSERT_EQ(ref_refused, idx_refused)
                    << "window " << window << " step " << step;
            }
        }
    }
}

} // namespace
} // namespace rsep::core
