#include "pred/ittage.hh"

#include "common/logging.hh"

namespace rsep::pred
{

ItageTable::ItageTable(const ItageParams &params, u64 seed)
    : p(params), rng(seed)
{
    if (p.numTagged > maxItageComps)
        rsep_fatal("ItageTable: too many components (%u)", p.numTagged);
    if (p.taggedBits > 16)
        rsep_fatal("ItageTable: taggedBits %u > 16 (lookup indices are "
                   "carried as u16)", p.taggedBits);
    basePayload = ZeroTable<u64>(size_t{1} << p.baseBits);
    baseConf = ZeroTable<u8>(size_t{1} << p.baseBits);
    size_t tagged = size_t{p.numTagged} << p.taggedBits;
    tTag = ZeroTable<u32>(tagged);
    tPayload = ZeroTable<u64>(tagged);
    tConf = ZeroTable<u8>(tagged);
    tU = ZeroTable<u8>(tagged);
}

void
ItageTable::registerFolds(GeoFoldSpec &spec)
{
    for (unsigned c = 0; c < p.numTagged; ++c) {
        idxSlot[c] =
            static_cast<u16>(spec.require(p.histLens[c], p.taggedBits));
        tagSlot[c] =
            static_cast<u16>(spec.require(p.histLens[c], p.tagBits[c]));
    }
    foldsRegistered = true;
}

ItageLookup
ItageTable::lookupWith(Addr pc, ItageLookup lk) const
{
    lk.baseIdx = static_cast<u32>(((pc >> 2) ^ (pc >> (2 + p.baseBits)))
                                  & mask(p.baseBits));
    lk.provider = -1;
    lk.payload = basePayload[lk.baseIdx];
    lk.confidence = confEffective(baseConf[lk.baseIdx]);
    lk.confident = confSaturated(baseConf[lk.baseIdx]);

    for (unsigned c = 0; c < p.numTagged; ++c) {
        const size_t at = (size_t{c} << p.taggedBits) | lk.idx[c];
        if (tTag[at] == lk.tag[c] && tTag[at] != 0) {
            lk.altProvider = lk.provider;
            lk.altPayload = lk.payload;
            lk.altValid = true;
            lk.provider = static_cast<s8>(c);
            lk.payload = tPayload[at];
            lk.confidence = confEffective(tConf[at]);
            lk.confident = confSaturated(tConf[at]);
        }
    }
    return lk;
}

ItageLookup
ItageTable::lookup(Addr pc, const GlobalHist &h) const
{
    ItageLookup lk;
    for (unsigned c = 0; c < p.numTagged; ++c) {
        lk.idx[c] =
            static_cast<u16>(geoIndex(pc, h, p.histLens[c], p.taggedBits));
        lk.tag[c] = geoTag(pc, h, p.histLens[c], p.tagBits[c]);
    }
    return lookupWith(pc, lk);
}

ItageLookup
ItageTable::lookup(Addr pc, const GlobalHist &h, const GeoFolds &folds) const
{
    assert(foldsRegistered);
    ItageLookup lk;
    // One shared path fold per lookup: the path contribution saturates
    // at 16 history bits, so every component with histLen >= 16 reuses
    // pf16.
    const unsigned ib = p.taggedBits;
    const unsigned shift = ib > 2 ? 1 : 0;
    const u64 pf16 = xorFold(h.path & mask(16), ib) << shift;
    u64 hash0 = pc >> 2;
    hash0 ^= hash0 >> ib;
    for (unsigned c = 0; c < p.numTagged; ++c) {
        const unsigned hl = p.histLens[c];
        u64 hash = hash0 ^ folds.fold(idxSlot[c]);
        hash ^= hl >= 16 ? pf16 : xorFold(h.path & mask(hl), ib) << shift;
        lk.idx[c] = static_cast<u16>(hash & mask(ib));
        lk.tag[c] = geoTagFolded(pc, folds.fold(tagSlot[c]), p.tagBits[c]);
    }
    return lookupWith(pc, lk);
}

void
ItageTable::update(const ItageLookup &lk, u64 actual, bool allocate_on_wrong)
{
    ++updates;
    bool provider_correct = lk.payload == actual;

    if (lk.provider >= 0) {
        const size_t at =
            (size_t{static_cast<unsigned>(lk.provider)} << p.taggedBits) |
            lk.idx[lk.provider];
        if (provider_correct) {
            confOnCorrect(tConf[at], actual);
            if (lk.altValid && lk.altPayload != actual && tU[at] < 1)
                ++tU[at];
        } else {
            if (confEffective(tConf[at]) == 0) {
                if (representable(actual))
                    tPayload[at] = actual;
                tConf[at] = 0;
            } else {
                tConf[at] = 0; // onIncorrect: confidence collapses.
            }
            if (lk.altValid && lk.altPayload == actual && tU[at] > 0)
                --tU[at];
        }
    } else {
        u8 &bc = baseConf[lk.baseIdx];
        if (provider_correct) {
            confOnCorrect(bc, actual);
        } else if (confEffective(bc) == 0) {
            if (representable(actual))
                basePayload[lk.baseIdx] = actual;
            bc = 0;
        } else {
            bc = 0;
        }
    }

    // Allocate a longer-history entry when the provider was wrong.
    if (!provider_correct && allocate_on_wrong && representable(actual) &&
        lk.provider < static_cast<int>(p.numTagged) - 1) {
        unsigned start = static_cast<unsigned>(lk.provider + 1);
        int victim = -1;
        for (unsigned c = start; c < p.numTagged; ++c) {
            if (tU[(size_t{c} << p.taggedBits) | lk.idx[c]] == 0) {
                victim = static_cast<int>(c);
                if (c + 1 < p.numTagged && rng.chance(1, 2) &&
                    tU[(size_t{c + 1} << p.taggedBits) | lk.idx[c + 1]] == 0)
                    victim = static_cast<int>(c + 1);
                break;
            }
        }
        if (victim >= 0) {
            const size_t at =
                (size_t{static_cast<unsigned>(victim)} << p.taggedBits) |
                lk.idx[victim];
            tTag[at] = lk.tag[victim];
            tPayload[at] = actual;
            tConf[at] = 0;
            tU[at] = 0;
        } else {
            for (unsigned c = start; c < p.numTagged; ++c) {
                u8 &u = tU[(size_t{c} << p.taggedBits) | lk.idx[c]];
                if (u > 0)
                    --u;
            }
        }
    }

    if (updates % p.usefulResetPeriod == 0) {
        for (u8 &u : tU)
            if (u > 0)
                --u;
    }
}

void
ItageTable::updateIncorrect(const ItageLookup &lk)
{
    if (lk.provider >= 0)
        tConf[(size_t{static_cast<unsigned>(lk.provider)} << p.taggedBits) |
              lk.idx[lk.provider]] = 0;
    else
        baseConf[lk.baseIdx] = 0;
}

unsigned
ItageTable::actLevel(unsigned min_effective) const
{
    unsigned level = 0;
    while (!confSaturated(static_cast<u8>(level)) &&
           !(min_effective &&
             static_cast<u8>(confEffective(static_cast<u8>(level))) >=
                 min_effective))
        ++level;
    return level;
}

u64
ItageTable::storageBits() const
{
    u64 conf_bits = p.confKind == ConfidenceKind::Deterministic8 ? 8 : 3;
    u64 bits = (u64{1} << p.baseBits) * (p.payloadBits + conf_bits);
    for (unsigned c = 0; c < p.numTagged; ++c) {
        bits += (u64{1} << p.taggedBits) *
                (p.tagBits[c] + p.payloadBits + conf_bits + 1);
    }
    return bits;
}

} // namespace rsep::pred
