/**
 * @file
 * D-VTAGE value predictor (Perais & Seznec, BeBoP/HPCA'15): a last-value
 * table plus ITTAGE-style differential (stride) components. This is the
 * paper's "regular VP" comparison arm (~256KB configuration).
 */

#ifndef RSEP_PRED_DVTAGE_HH
#define RSEP_PRED_DVTAGE_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "pred/ittage.hh"

namespace rsep::pred
{

/** D-VTAGE configuration. */
struct DvtageParams
{
    unsigned lvtBits = 14;        ///< log2 last-value-table entries (16K).
    unsigned deltaBits = 16;      ///< representable (zigzag) delta width.
    ItageParams itage{
        .baseBits = 14,
        .numTagged = 6,
        .taggedBits = 10,
        .histLens = {2, 4, 8, 16, 32, 64, 0, 0},
        .tagBits = {12, 12, 13, 13, 14, 14, 0, 0},
        .payloadBits = 16,
        .confKind = ConfidenceKind::Deterministic8,
    };
};

/**
 * Field-introspection hook for DvtageParams: the `[vp]` scenario-file
 * section, so D-VTAGE geometry sweeps need no rebuild. The nested
 * delta-component ItageParams is flattened with an `itage_` prefix
 * (e.g. `itage_hist_lens = 1,2,4,8`, array values as comma lists).
 */
template <class V>
void
visitFields(DvtageParams &p, V &&v)
{
    v("lvt_bits", p.lvtBits);
    v("delta_bits", p.deltaBits);
    visitFields(p.itage, [&v](const char *key, auto &field) {
        // The temporary's lifetime spans the visitor call, which is
        // all any visitor may assume about a key pointer.
        v((std::string("itage_") + key).c_str(), field);
    });
}

/** Per-instruction lookup state carried until commit. */
struct VpLookup
{
    ItageLookup itageLk;
    u64 predicted = 0;         ///< predicted result value.
    u32 lvtIdx = 0;
    bool valid = false;        ///< a lookup was performed.
    bool confident = false;    ///< prediction usable.
    bool speculated = false;   ///< prediction was consumed by the core.
};

/** The predictor. */
class Dvtage
{
  public:
    explicit Dvtage(const DvtageParams &params = DvtageParams{},
                    u64 seed = 11);

    /** Register the delta table's fold geometry. */
    void registerFolds(GeoFoldSpec &spec) { deltas.registerFolds(spec); }

    /**
     * Rename-time lookup for the instruction at @p pc fetched under
     * history @p h. The caller decides whether to speculate (and then
     * calls notifySpeculated so back-to-back instances chain).
     */
    VpLookup lookup(Addr pc, const GlobalHist &h);

    /** Folded-history fast path; @p folds must shadow @p h. */
    VpLookup lookup(Addr pc, const GlobalHist &h, const GeoFolds &folds);

    /** The core consumed this prediction: advance the spec window. */
    void notifySpeculated(VpLookup &lk);

    /** Commit-time training with the architectural result. */
    void commit(VpLookup &lk, u64 actual);

    /** Any squash: drop the speculative last-value window. O(1): a
     *  window entry is live only while its epoch is the current one. */
    void
    squash()
    {
        if (++epoch == 0)
            for (LvtEntry &e : lvt)
                e.specRefs = 0; // the stamps wrapped: retire them all.
    }

    u64 storageBits() const;
    const DvtageParams &params() const { return p; }

    StatCounter lookups;
    StatCounter correctPreds;
    StatCounter mispredicts;

  private:
    VpLookup finishLookup(Addr pc, VpLookup lk);

    /** Zigzag encode a signed delta into an unsigned payload. */
    static u64
    encodeDelta(s64 d)
    {
        return (static_cast<u64>(d) << 1) ^ static_cast<u64>(d >> 63);
    }
    static s64
    decodeDelta(u64 p_)
    {
        return static_cast<s64>((p_ >> 1) ^ (~(p_ & 1) + 1));
    }

    /**
     * One last-value-table entry with its slot of the speculative
     * window beside it, so a lookup reads one entry. The window slot is
     * live while specRefs > 0 and specEpoch is the current epoch: it
     * holds the newest in-flight prediction of this entry, which the
     * next lookup chains off instead of the committed value.
     */
    struct LvtEntry
    {
        u64 last = 0;       ///< committed last value.
        u64 specValue = 0;  ///< newest in-flight predicted value.
        u32 specRefs = 0;   ///< in-flight lookups not yet committed.
        u32 specEpoch = 0;  ///< squash epoch that stamped the slot.
    };

    bool
    specLive(const LvtEntry &e) const
    {
        return e.specRefs != 0 && e.specEpoch == epoch;
    }

    DvtageParams p;
    std::vector<LvtEntry> lvt;
    ItageTable deltas;
    u32 epoch = 0; ///< bumped by every squash.
};

} // namespace rsep::pred

#endif // RSEP_PRED_DVTAGE_HH
