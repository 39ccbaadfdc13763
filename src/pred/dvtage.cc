#include "pred/dvtage.hh"

namespace rsep::pred
{

Dvtage::Dvtage(const DvtageParams &params, u64 seed)
    : p(params), lvt(size_t{1} << p.lvtBits), deltas(p.itage, seed),
      confident(deltas.actLevel(0))
{
}

VpLookup
Dvtage::lookup(Addr pc, const GlobalHist &h)
{
    VpLookup lk;
    lk.itageLk = deltas.lookup(pc, h);
    return finishLookup(pc, std::move(lk));
}

VpLookup
Dvtage::lookup(Addr pc, const GlobalHist &h, const GeoFolds &folds)
{
    VpLookup lk;
    lk.itageLk = deltas.lookup(pc, h, folds);
    return finishLookup(pc, std::move(lk));
}

VpLookup
Dvtage::finishLookup(Addr pc, VpLookup lk)
{
    ++lookups;
    lk.valid = true;
    lk.lvtIdx = static_cast<u32>(((pc >> 2) ^ (pc >> (2 + p.lvtBits)))
                                 & mask(p.lvtBits));

    LvtEntry &e = lvt[lk.lvtIdx];
    bool live = specLive(e);
    u64 last = live ? e.specValue : e.last;

    lk.predicted = last + static_cast<u64>(decodeDelta(lk.itageLk.payload));
    lk.confident = lk.itageLk.confident;

    // Advance the speculative last-value window for *every* lookup
    // (BeBoP's in-flight chaining): back-to-back instances of the same
    // static instruction must chain off the predicted value of the
    // previous in-flight instance, whether or not the core consumed
    // that prediction; otherwise a single low-confidence instance
    // poisons every successor with a stale last value.
    lk.speculated = true;
    if (!live) {
        e.specEpoch = epoch;
        e.specRefs = 0;
    }
    e.specValue = lk.predicted;
    ++e.specRefs;
    return lk;
}

void
Dvtage::notifySpeculated(VpLookup &lk)
{
    // Spec-window advance now happens in lookup(); kept for API
    // compatibility (marks the prediction as architecturally used).
    (void)lk;
}

void
Dvtage::commit(VpLookup &lk, u64 actual)
{
    if (!lk.valid)
        return;
    if (lk.confident) {
        if (lk.predicted == actual)
            ++correctPreds;
        else
            ++mispredicts;
    }

    // Train deltas against the committed last value (in-order commit
    // makes this exact).
    LvtEntry &e = lvt[lk.lvtIdx];
    s64 delta = static_cast<s64>(actual - e.last);
    deltas.update(lk.itageLk, encodeDelta(delta));
    e.last = actual;

    // The window slot counts in-flight lookups of this entry since the
    // last squash, whichever of them this commit is; at zero it drops
    // and the next lookup reads the committed value.
    if (lk.speculated && specLive(e))
        --e.specRefs;
}

u64
Dvtage::storageBits() const
{
    return (u64{1} << p.lvtBits) * 64 + deltas.storageBits();
}

} // namespace rsep::pred
