#include "pred/tage.hh"

#include <cassert>

namespace rsep::pred
{

Tage::Tage(const TageParams &params, u64 seed) : p(params), rng(seed)
{
    base.assign(size_t{1} << p.baseBits, 1); // weakly not-taken.
    size_t tagged = size_t{p.numTagged} << p.taggedBits;
    tTag.assign(tagged, 0);
    tCtr.assign(tagged, 3); // weakly not-taken (3-bit midpoint 4).
    tU.assign(tagged, 0);
}

void
Tage::registerFolds(GeoFoldSpec &spec)
{
    for (unsigned c = 0; c < p.numTagged; ++c) {
        idxSlot[c] =
            static_cast<u16>(spec.require(p.histLens[c], p.taggedBits));
        tagSlot[c] =
            static_cast<u16>(spec.require(p.histLens[c], p.tagBits[c]));
    }
    foldsRegistered = true;
}

void
Tage::indicesFolded(Addr pc, const GlobalHist &h, const GeoFolds &folds,
                    u16 *idx, u16 *tag) const
{
    assert(foldsRegistered);
    // The path fold saturates at 16 history bits: every component with
    // histLen >= 16 shares one fold, computed once per prediction.
    const unsigned ib = p.taggedBits;
    const unsigned shift = ib > 2 ? 1 : 0;
    const u64 pf16 = xorFold(h.path & mask(16), ib) << shift;
    u64 hash0 = pc >> 2;
    hash0 ^= hash0 >> ib;
    for (unsigned c = 0; c < p.numTagged; ++c) {
        const unsigned hl = p.histLens[c];
        u64 hash = hash0 ^ folds.fold(idxSlot[c]);
        hash ^= hl >= 16 ? pf16
                         : xorFold(h.path & mask(hl), ib) << shift;
        idx[c] = static_cast<u16>(hash & mask(ib));
        tag[c] = static_cast<u16>(
            geoTagFolded(pc, folds.fold(tagSlot[c]), p.tagBits[c]));
    }
}

void
Tage::indicesScratch(Addr pc, const GlobalHist &h, u16 *idx, u16 *tag) const
{
    for (unsigned c = 0; c < p.numTagged; ++c) {
        idx[c] = static_cast<u16>(geoIndex(pc, h, p.histLens[c],
                                           p.taggedBits));
        tag[c] = static_cast<u16>(geoTag(pc, h, p.histLens[c],
                                         p.tagBits[c]));
    }
}

void
Tage::predictWith(Addr pc, TageLookup &lk) const
{
    const u32 base_idx = static_cast<u32>((pc >> 2) & mask(p.baseBits));
    const bool base_pred = base[base_idx] >= 2;
    lk.pred = base_pred;
    lk.altPred = base_pred;

    for (unsigned c = 0; c < p.numTagged; ++c) {
        const size_t at = (size_t{c} << p.taggedBits) | lk.idx[c];
        if (tTag[at] == lk.tag[c]) {
            lk.altProvider = lk.provider;
            lk.altPred = lk.pred;
            lk.provider = static_cast<s8>(c);
            const u8 ctr = tCtr[at];
            lk.pred = ctr >= 4;
            lk.providerWeak = ctr == 3 || ctr == 4;
        }
    }
    // The conventional alt computation keeps the prediction of the
    // second-longest match; the loop above maintains exactly that.
}

void
Tage::predict(Addr pc, const GlobalHist &h, const GeoFolds &folds,
              TageLookup &lk) const
{
    indicesFolded(pc, h, folds, lk.idx, lk.tag);
    predictWith(pc, lk);
}

TageLookup
Tage::predict(Addr pc, const GlobalHist &h, const GeoFolds &folds) const
{
    TageLookup lk;
    predict(pc, h, folds, lk);
    return lk;
}

TageLookup
Tage::predict(Addr pc, const GlobalHist &h) const
{
    TageLookup lk;
    indicesScratch(pc, h, lk.idx, lk.tag);
    predictWith(pc, lk);
    return lk;
}

void
Tage::update(const TageLookup &lk, Addr pc, bool taken)
{
    const u16 *idx = lk.idx;
    const u16 *tag = lk.tag;
    ++updates;

    auto bump3 = [taken](u8 &c) {
        if (taken) {
            if (c < 7)
                ++c;
        } else if (c > 0) {
            --c;
        }
    };

    const u32 base_idx = static_cast<u32>((pc >> 2) & mask(p.baseBits));
    auto bump_base = [&] {
        u8 &c = base[base_idx];
        if (taken) {
            if (c < 3)
                ++c;
        } else if (c > 0) {
            --c;
        }
    };

    if (lk.provider >= 0) {
        const size_t at =
            (size_t{static_cast<unsigned>(lk.provider)} << p.taggedBits) |
            idx[static_cast<unsigned>(lk.provider)];
        // Useful bit: provider differed from alt and was right/wrong.
        if (lk.pred != lk.altPred) {
            u8 &u = tU[at];
            if (lk.pred == taken) {
                if (u < 3)
                    ++u;
            } else if (u > 0) {
                --u;
            }
        }
        bump3(tCtr[at]);
        // Weak providers also train the alternate (base) prediction.
        if (lk.providerWeak && lk.altProvider < 0)
            bump_base();
    } else {
        bump_base();
    }

    // Allocate on a misprediction if a longer component is available.
    bool mispred = lk.pred != taken;
    if (mispred && lk.provider < static_cast<int>(p.numTagged) - 1) {
        unsigned start = static_cast<unsigned>(lk.provider + 1);
        // Pick the first u==0 entry among longer components, with a
        // 1/2 chance of skipping one to decorrelate allocations.
        int victim = -1;
        for (unsigned c = start; c < p.numTagged; ++c) {
            if (tU[(size_t{c} << p.taggedBits) | idx[c]] == 0) {
                victim = static_cast<int>(c);
                if (c + 1 < p.numTagged && rng.chance(1, 2) &&
                    tU[(size_t{c + 1} << p.taggedBits) | idx[c + 1]] == 0)
                    victim = static_cast<int>(c + 1);
                break;
            }
        }
        if (victim >= 0) {
            const size_t at =
                (size_t{static_cast<unsigned>(victim)} << p.taggedBits) |
                idx[victim];
            tTag[at] = tag[victim];
            tCtr[at] = taken ? 4 : 3;
            tU[at] = 0;
        } else {
            for (unsigned c = start; c < p.numTagged; ++c) {
                u8 &u = tU[(size_t{c} << p.taggedBits) | idx[c]];
                if (u > 0)
                    --u;
            }
        }
    }

    // Periodic useful-bit aging.
    if (updates % p.usefulResetPeriod == 0) {
        for (u8 &u : tU)
            if (u > 0)
                --u;
    }
}

u64
Tage::storageBits() const
{
    u64 bits = (u64{1} << p.baseBits) * 2;
    for (unsigned c = 0; c < p.numTagged; ++c)
        bits += (u64{1} << p.taggedBits) * (p.tagBits[c] + 3 + 2);
    return bits;
}

} // namespace rsep::pred
