/**
 * @file
 * Global direction/path history shared by the history-indexed
 * predictors (TAGE branch predictor, distance predictor, D-VTAGE).
 *
 * Simplification vs. a full TAGE implementation: history is a 64-bit
 * register rather than a ~640-bit folded buffer. Our workload kernels
 * need far less than 64 bits of correlation, and a flat u64 makes
 * squash recovery trivial (each in-flight instruction carries the
 * 16-byte snapshot it was fetched with). Documented in DESIGN.md.
 */

#ifndef RSEP_PRED_GHIST_HH
#define RSEP_PRED_GHIST_HH

#include <algorithm>
#include <vector>

#include "common/bitutils.hh"
#include "common/types.hh"

namespace rsep::pred
{

/** Global branch direction + path history. */
struct GlobalHist
{
    u64 dir = 0;  ///< direction history, newest bit = bit 0.
    u64 path = 0; ///< path history, 3 PC bits per branch.

    /** Record the outcome of a conditional branch at @p pc. */
    void
    insert(bool taken, Addr pc)
    {
        dir = (dir << 1) | (taken ? 1 : 0);
        path = (path << 3) ^ ((pc >> 2) & 0x3ff);
    }

    /**
     * Record the target of a taken unconditional/indirect transfer:
     * only path history advances (distinguishes e.g. interpreter
     * handlers for the history-indexed payload predictors).
     */
    void
    insertPath(Addr target)
    {
        path = (path << 3) ^ ((target >> 2) & 0x3ff);
    }
};

/**
 * Compute a table index from pc/history for a geometric component.
 *
 * @param pc instruction address.
 * @param h history snapshot at fetch.
 * @param hist_len number of direction-history bits to use (<= 64).
 * @param idx_bits log2 of the table size.
 */
inline u32
geoIndex(Addr pc, const GlobalHist &h, unsigned hist_len, unsigned idx_bits)
{
    u64 hash = pc >> 2;
    hash ^= hash >> idx_bits;
    u64 hd = hist_len == 0 ? 0 : (h.dir & mask(hist_len));
    hash ^= xorFold(hd, idx_bits);
    hash ^= xorFold(h.path & mask(std::min(16u, hist_len)), idx_bits)
            << (idx_bits > 2 ? 1 : 0);
    return static_cast<u32>(hash & mask(idx_bits));
}

/** Compute a partial tag (different mixing than the index). */
inline u32
geoTag(Addr pc, const GlobalHist &h, unsigned hist_len, unsigned tag_bits)
{
    u64 hash = (pc >> 2) * 0x9e3779b97f4a7c15ull;
    u64 hd = hist_len == 0 ? 0 : (h.dir & mask(hist_len));
    hash ^= xorFold(hd, tag_bits) << 1;
    hash ^= hash >> 17;
    return static_cast<u32>(hash & mask(tag_bits));
}

/**
 * Registry of the distinct (history length, fold width) pairs a set of
 * geometric predictors needs. Predictors register their components
 * once at construction; duplicate pairs collapse onto one slot, which
 * is how the index-computation pass is shared across TAGE / ITTAGE /
 * D-VTAGE / distance-predictor components with coinciding geometry.
 */
class GeoFoldSpec
{
  public:
    struct Slot
    {
        unsigned len;  ///< direction-history bits folded (0..64).
        unsigned bits; ///< fold width (the xorFold target width).
    };

    /** Register (len, bits), deduplicating; returns the slot index. */
    unsigned
    require(unsigned len, unsigned bits)
    {
        for (unsigned i = 0; i < sl.size(); ++i)
            if (sl[i].len == len && sl[i].bits == bits)
                return i;
        sl.push_back(Slot{len, bits});
        return static_cast<unsigned>(sl.size() - 1);
    }

    const std::vector<Slot> &slots() const { return sl; }
    unsigned size() const { return static_cast<unsigned>(sl.size()); }

  private:
    std::vector<Slot> sl;
};

/**
 * Incrementally maintained folded direction history: one register per
 * GeoFoldSpec slot, each holding exactly
 *
 *     xorFold(dir & mask(len), bits)
 *
 * for the GlobalHist it shadows. Inserting a direction bit updates
 * every register in O(1) instead of re-folding up to 64 bits per
 * component per prediction; squash restores recompute from the (rare)
 * restored dir value. The identity is pinned by tests/test_pred_fold.cc.
 *
 * Derivation: write fold(x) = XOR_i x_i << (i mod B) over the L-bit
 * window x. Shifting in a new bit b moves every x_i to position i+1,
 * so fold becomes rotl(fold, B, 1) with b entering at bit 0 and the
 * evicted bit x_{L-1} — which the rotation carried to position L mod B
 * — cancelled by XOR.
 */
class GeoFolds
{
  public:
    /** Take the slots of a fully populated spec and zero the
     *  registers. Keeps no pointer to @p spec, so the folds copy as a
     *  value. */
    void
    bind(const GeoFoldSpec *spec)
    {
        f.assign(spec->size(), 0);
        // insertDir's per-slot constants, so no division runs per
        // branch. An empty window's zero mask keeps its fold at 0.
        upd.clear();
        for (const GeoFoldSpec::Slot &s : spec->slots())
            upd.push_back({s.len ? mask(s.bits) : 0, s.bits - 1,
                           s.len ? s.len - 1 : 0, s.len % s.bits});
    }

    /** A direction bit is inserted into the shadowed history; @p
     *  dir_before is GlobalHist::dir *before* its insert(). */
    void
    insertDir(bool taken, u64 dir_before)
    {
        for (size_t i = 0; i < f.size(); ++i) {
            const Update &u = upd[i];
            // rotl(f, B, 1), which at B == 1 leaves bit 0 in place.
            u64 v = (f[i] << 1) | (f[i] >> u.topBit);
            v ^= static_cast<u64>(taken);
            v ^= ((dir_before >> u.evictBit) & 1) << u.evictPos;
            f[i] = v & u.mask;
        }
    }

    /** Rebuild every register from scratch (squash restore). */
    void
    recompute(u64 dir)
    {
        // A slot's window is evictBit + 1 bits and its fold topBit + 1
        // wide; an empty window has a zero mask.
        for (size_t i = 0; i < f.size(); ++i) {
            const Update &u = upd[i];
            f[i] = u.mask == 0
                ? 0
                : xorFold(dir & mask(u.evictBit + 1), u.topBit + 1);
        }
    }

    u64 fold(unsigned slot) const { return f[slot]; }

  private:
    /** mask(B) (0 for an empty window); B - 1, the bit the rotate
     *  carries to 0; L - 1, the evicted bit; L % B, where it lands. */
    struct Update { u64 mask; unsigned topBit, evictBit, evictPos; };

    std::vector<u64> f;
    std::vector<Update> upd; ///< per slot, parallel to f.
};

/** geoIndex with the direction fold precomputed (identical hash). */
inline u32
geoIndexFolded(Addr pc, u64 dir_fold, u64 path, unsigned hist_len,
               unsigned idx_bits)
{
    u64 hash = pc >> 2;
    hash ^= hash >> idx_bits;
    hash ^= dir_fold;
    hash ^= xorFold(path & mask(std::min(16u, hist_len)), idx_bits)
            << (idx_bits > 2 ? 1 : 0);
    return static_cast<u32>(hash & mask(idx_bits));
}

/** geoTag with the direction fold precomputed (identical hash). */
inline u32
geoTagFolded(Addr pc, u64 dir_fold, unsigned tag_bits)
{
    u64 hash = (pc >> 2) * 0x9e3779b97f4a7c15ull;
    hash ^= dir_fold << 1;
    hash ^= hash >> 17;
    return static_cast<u32>(hash & mask(tag_bits));
}

} // namespace rsep::pred

#endif // RSEP_PRED_GHIST_HH
