/**
 * @file
 * ITTAGE-style tagged geometric payload predictor.
 *
 * Shared machinery for the two payload predictors in the paper:
 *  - the IDist (distance) predictor of RSEP (Section IV-C), and
 *  - the delta components of D-VTAGE (BeBoP [6]).
 *
 * A PC-indexed untagged base table is backed by N partially tagged
 * components indexed by PC ^ folded global branch/path history with
 * geometrically increasing history lengths. Each entry carries a
 * payload, a confidence counter (prediction allowed only at saturation,
 * per the paper's use_pred = 255 policy) and a useful bit for the
 * TAGE replacement policy.
 */

#ifndef RSEP_PRED_ITTAGE_HH
#define RSEP_PRED_ITTAGE_HH

#include <algorithm>
#include <array>
#include <vector>

#include "common/prob_counter.hh"
#include "common/zero_table.hh"
#include "common/rng.hh"
#include "pred/ghist.hh"

namespace rsep::pred
{

/** Maximum number of tagged components supported by ItageLookup. */
constexpr unsigned maxItageComps = 8;

/** Configuration of an ITTAGE-style predictor. */
struct ItageParams
{
    unsigned baseBits = 14;        ///< log2 base entries.
    unsigned numTagged = 6;
    unsigned taggedBits = 10;      ///< log2 entries per tagged comp.
    std::array<unsigned, maxItageComps> histLens = {2, 4, 8, 16, 32, 64,
                                                    0, 0};
    std::array<unsigned, maxItageComps> tagBits = {13, 14, 15, 16, 17, 18,
                                                   0, 0};
    unsigned payloadBits = 8;      ///< representable payload width.
    ConfidenceKind confKind = ConfidenceKind::Deterministic8;
    u64 usefulResetPeriod = 1 << 18;
};

/**
 * Field-introspection hook for ItageParams (see visitFields on
 * RsepConfig): the scenario layer derives its keys — including the
 * array-valued per-component geometry — from this enumeration.
 * Array values are spelled as comma lists in scenario files
 * (`hist_lens = 2,4,8,16,32,64`); unspecified tail components are 0.
 */
template <class V>
void
visitFields(ItageParams &p, V &&v)
{
    v("base_bits", p.baseBits);
    v("num_tagged", p.numTagged);
    v("tagged_bits", p.taggedBits);
    v("hist_lens", p.histLens);
    v("tag_bits", p.tagBits);
    v("payload_bits", p.payloadBits);
    v("conf_kind", p.confKind);
    v("useful_reset_period", p.usefulResetPeriod);
}

/**
 * Result of a lookup; carried with the instruction until commit. The
 * engines keep one per in-flight instruction (D-VTAGE and the distance
 * predictor, each in a ring), so the layout is packed: indices fit u16 (taggedBits is
 * checked <= 16 at construction), providers fit s8, confidence is the
 * effective 0..255 scale.
 */
struct ItageLookup
{
    u64 payload = 0;
    u64 altPayload = 0;
    std::array<u16, maxItageComps> idx{};
    std::array<u32, maxItageComps> tag{};
    u32 baseIdx = 0;
    u8 confidence = 0;             ///< effective 0..255 scale.
    s8 provider = -1;              ///< tagged comp index, -1 = base.
    s8 altProvider = -1;
    bool confident = false;        ///< confidence saturated.
    bool altValid = false;
};

/** The predictor. Payloads are opaque u64 values. */
class ItageTable
{
  public:
    explicit ItageTable(const ItageParams &params, u64 seed = 3);

    /** Register this table's (hist len, fold width) pairs; enables the
     *  folded lookup overload. */
    void registerFolds(GeoFoldSpec &spec);

    /** Look up under the history the instruction was fetched with. */
    ItageLookup lookup(Addr pc, const GlobalHist &h) const;

    /** Folded-history fast path: @p folds must shadow @p h. The lookup
     *  result (including the carried idx/tag arrays) is identical to
     *  the from-scratch overload. */
    ItageLookup lookup(Addr pc, const GlobalHist &h,
                       const GeoFolds &folds) const;

    /**
     * Commit-time training with the observed payload.
     * @param allocate_on_wrong grow to longer components on payload
     *        mismatch (standard TAGE allocation).
     */
    void update(const ItageLookup &lk, u64 actual_payload,
                bool allocate_on_wrong = true);

    /**
     * Training when the prediction is known wrong but the correct
     * payload is unavailable (e.g., failed equality validation): the
     * provider's confidence collapses, nothing is allocated.
     */
    void updateIncorrect(const ItageLookup &lk);

    /** True if @p payload fits the configured entry width. */
    bool
    representable(u64 payload) const
    {
        return payload <= mask(p.payloadBits);
    }

    u64 storageBits() const;
    const ItageParams &params() const { return p; }

    /**
     * The highest raw confidence level any entry has reached, or, with
     * @p nonzero, any entry holding a nonzero payload. Only update()
     * raises a level, one step at a time and never while it replaces
     * the payload, so an entry at level l has passed through every
     * level below it with the payload it holds.
     */
    unsigned
    peakLevel(bool nonzero = false) const
    {
        return nonzero ? peakNonzero : peak;
    }

    /**
     * The lowest raw level at which a lookup is confident or, when
     * @p min_effective > 0, reports ItageLookup::confidence of at least
     * @p min_effective: no lookup does either before peakLevel()
     * reaches it.
     */
    unsigned actLevel(unsigned min_effective) const;

  private:
    void indicesInto(Addr pc, const GlobalHist &h, ItageLookup &lk) const;
    ItageLookup lookupWith(Addr pc, ItageLookup lk) const;

    // Confidence counters stored as raw levels with a table-wide kind;
    // the helpers replicate ConfidenceCounter exactly (including the
    // FPC rng-call sequence, which is shared with allocation rolls).
    /** A correct outcome of an entry holding @p payload. */
    void
    confOnCorrect(u8 &lvl, u64 payload)
    {
        if (p.confKind == ConfidenceKind::Deterministic8) {
            if (lvl < 255)
                ++lvl;
        } else {
            if (lvl >= 7)
                return;
            u32 den = fpc3Denominators[lvl];
            if (den == 1 || rng.chance(1, den))
                ++lvl;
        }
        peak = std::max<unsigned>(peak, lvl);
        if (payload != 0)
            peakNonzero = std::max<unsigned>(peakNonzero, lvl);
    }
    u32
    confEffective(u8 lvl) const
    {
        if (p.confKind == ConfidenceKind::Deterministic8)
            return lvl;
        constexpr auto eff = fpc3EffectiveLevels();
        return eff[lvl];
    }
    bool
    confSaturated(u8 lvl) const
    {
        return p.confKind == ConfidenceKind::Deterministic8 ? lvl == 255
                                                            : lvl == 7;
    }

    ItageParams p;
    /** Banked SoA storage: tagged entry (c, i) lives at flat position
     *  (c << taggedBits) | i in each array. */
    ZeroTable<u64> basePayload;
    ZeroTable<u8> baseConf;
    ZeroTable<u32> tTag;
    ZeroTable<u64> tPayload;
    ZeroTable<u8> tConf;
    ZeroTable<u8> tU; ///< 1-bit useful counters.
    std::array<u16, maxItageComps> idxSlot{};
    std::array<u16, maxItageComps> tagSlot{};
    bool foldsRegistered = false;
    mutable Rng rng;
    u64 updates = 0;
    unsigned peak = 0;        ///< see peakLevel().
    unsigned peakNonzero = 0; ///< see peakLevel().
};

} // namespace rsep::pred

#endif // RSEP_PRED_ITTAGE_HH
