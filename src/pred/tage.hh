/**
 * @file
 * TAGE conditional branch predictor (Seznec & Michaud), Table I front
 * end: 1 base + 12 partially tagged geometric-history components,
 * ~15K entries total.
 *
 * Storage is banked struct-of-arrays: tags, prediction counters and
 * useful bits live in separate contiguous arrays indexed by
 * (component << taggedBits) | index, so the 12 tagged probes of a
 * prediction are a tight gather over prefetchable memory instead of 12
 * scattered vector-of-vector dereferences. Lookups take an incremental
 * GeoFolds register set (see ghist.hh) and are hash-identical to the
 * from-scratch geoIndex/geoTag path, which is kept for tests.
 */

#ifndef RSEP_PRED_TAGE_HH
#define RSEP_PRED_TAGE_HH

#include <array>
#include <vector>

#include "common/rng.hh"
#include "pred/ghist.hh"

namespace rsep::pred
{

/** Configuration of the TAGE branch predictor. */
struct TageParams
{
    unsigned baseBits = 13;           ///< log2 base entries (8K).
    unsigned numTagged = 12;
    unsigned taggedBits = 9;          ///< log2 entries per tagged comp.
    std::array<unsigned, 12> histLens = {2, 4, 6, 8, 12, 16, 24, 32,
                                         40, 48, 56, 64};
    std::array<unsigned, 12> tagBits = {8, 8, 9, 9, 10, 10, 11, 11,
                                        12, 12, 13, 13};
    u64 usefulResetPeriod = 1 << 18;  ///< epoch for u-bit aging.
};

/**
 * Per-prediction bookkeeping carried from fetch to commit. Indices and
 * tags are carried packed to 16 bits each (table indices are 9 bits,
 * partial tags at most 13), halving the old two-u32-array payload; the
 * commit-side update consumes them directly instead of re-hashing the
 * branch's fetch-time history. (A rematerialize-at-update variant that
 * carried only the folded snapshot was measured slower: it re-ran the
 * 12-component index hash per retiring branch and forced a second
 * folded-history replica to be maintained at commit.)
 */
struct TageLookup
{
    u16 idx[12] = {};      ///< per-component table indices.
    u16 tag[12] = {};      ///< per-component partial tags.
    bool pred = false;
    bool altPred = false;
    s8 provider = -1;      ///< tagged component index, -1 = base.
    s8 altProvider = -1;
    bool providerWeak = false;
};

/** The TAGE predictor proper. */
class Tage
{
  public:
    explicit Tage(const TageParams &params = TageParams{}, u64 seed = 1);

    /** Register this predictor's (hist len, fold width) pairs; must be
     *  called before the folded predict/update entry points. */
    void registerFolds(GeoFoldSpec &spec);

    /** Predict the branch at @p pc under history @p h with the folds
     *  shadowing @p h (the hot path). Fills @p lk in place; the caller
     *  passes a default-initialized lookup. */
    void predict(Addr pc, const GlobalHist &h, const GeoFolds &folds,
                 TageLookup &lk) const;

    /** By-value variant of the folded predict. */
    TageLookup predict(Addr pc, const GlobalHist &h,
                       const GeoFolds &folds) const;

    /** From-scratch variant (tests / unfolded callers). */
    TageLookup predict(Addr pc, const GlobalHist &h) const;

    /** Commit-time update; consumes the indices/tags @p lk carried
     *  from its predict() — no history needed at commit. */
    void update(const TageLookup &lk, Addr pc, bool taken);

    /** Total storage in bits (for the cost model). */
    u64 storageBits() const;

  private:
    void indicesFolded(Addr pc, const GlobalHist &h, const GeoFolds &folds,
                       u16 *idx, u16 *tag) const;
    void indicesScratch(Addr pc, const GlobalHist &h, u16 *idx,
                        u16 *tag) const;
    void predictWith(Addr pc, TageLookup &lk) const;

    TageParams p;
    /** Banked SoA storage: entry (c, i) of a tagged component lives at
     *  flat position (c << taggedBits) | i in each array. */
    std::vector<u8> base;  ///< 2-bit bimodal counters.
    std::vector<u16> tTag; ///< partial tags (<= 13 bits).
    std::vector<u8> tCtr;  ///< 3-bit prediction counters.
    std::vector<u8> tU;    ///< 2-bit useful counters.
    std::array<u16, 12> idxSlot{};
    std::array<u16, 12> tagSlot{};
    bool foldsRegistered = false;
    Rng rng;
    u64 updates = 0;
};

} // namespace rsep::pred

#endif // RSEP_PRED_TAGE_HH
