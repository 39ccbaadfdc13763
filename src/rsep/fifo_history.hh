/**
 * @file
 * FIFO commit history for pair discovery (paper Sections IV-B2/IV-D2).
 *
 * Holds the hashes and 10-bit Commit Sequence Numbers of the last N
 * committed register-producing instructions (the paper's explicit-IDist
 * variant). Committing instructions compare their hash against the
 * history; the match yields the IDist used to train the distance
 * predictor.
 *
 * The simulator finds matches through a hash-chained index over the
 * ring instead of a linear scan: a power-of-two bucket-head array plus,
 * per entry, a link to the previous entry in the same bucket. Links
 * name push ordinals, so a link is live iff its ordinal is still inside
 * the window and evicted entries need no unlinking. The walk accepts
 * exactly the entries a newest-to-oldest scan would, in the same order,
 * and `comparisons` still counts what that scan compares. The index is
 * simulator bookkeeping; the hardware cost stays `storageBits` and
 * `fifoComparators` (DESIGN.md section 15).
 */

#ifndef RSEP_RSEP_FIFO_HISTORY_HH
#define RSEP_RSEP_FIFO_HISTORY_HH

#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rsep::equality
{

/** Number of bits in a Commit Sequence Number (wraps, paper uses 10). */
constexpr unsigned csnBits = 10;
constexpr u32 csnMask = (1u << csnBits) - 1;

/**
 * Distance between two CSNs with wraparound (young - old mod 2^10).
 * Valid while true distances stay below 2^csnBits.
 */
inline u32
csnDistance(u32 young, u32 old)
{
    return (young - old) & csnMask;
}

/** A discovered pair. */
struct HistoryMatch
{
    u32 distance = 0;     ///< IDist in committed instructions.
    u64 producerSeq = 0;  ///< simulator bookkeeping (not hardware state).
    u64 producerValue = 0;///< simulator bookkeeping (false-pair stats).
    bool matchedPredicted = false; ///< match at the propagated distance.
};

/** The FIFO history. */
class FifoHistory
{
  public:
    /** @param depth register producers kept. */
    explicit FifoHistory(unsigned depth = 128);

    /**
     * Find the match for @p hash from an instruction at CSN @p csn.
     * Prefers an entry whose distance equals @p predicted_dist (the
     * distance propagated from prediction time, Section VI-A2), else
     * returns the most recent (nearest) match.
     */
    std::optional<HistoryMatch>
    match(u16 hash, u32 csn, std::optional<u32> predicted_dist) const;

    /**
     * Push a committed register producer into the history. @p value is
     * simulator bookkeeping only (hash false-positive statistics);
     * hardware stores just hash + CSN.
     */
    void push(u16 hash, u32 csn, u64 seq, u64 value = 0);
    /** Form for callers that still pass a producer flag. Every push
     *  is a producer, so the flag is ignored. */
    void
    push(u16 hash, u32 csn, u64 seq, bool, u64 value)
    {
        push(hash, csn, seq, value);
    }

    void clear();

    unsigned depth() const { return static_cast<unsigned>(cap); }
    /** Current number of valid entries. */
    unsigned size() const { return static_cast<unsigned>(valid); }

    /** Storage, as computeStorage charges it too: hash + CSN per
     *  entry. */
    u64 storageBits(unsigned hash_bits) const;

    /**
     * Entries a newest-to-oldest scan compares before it stops (for
     * the Section IV-D comparator study).
     */
    mutable StatCounter comparisons;
    StatCounter pushes;
    mutable StatCounter matches;
    mutable StatCounter predictedDistanceMatches;

  private:
    struct Entry
    {
        u16 hash = 0;
        u16 csn = 0;
        u64 seq = 0;
        u64 value = 0;
        /** Ordinal of the previous entry in this bucket (0 = none). */
        u64 prevInBucket = 0;
    };

    /** Ring slot of push ordinal @p ord (ordinals start at 1): a mask
     *  when the depth is a power of two, else a division. */
    size_t
    slot(u64 ord) const
    {
        return ringMask ? ord & ringMask : ord % cap;
    }
    const Entry &at(u64 ord) const { return ring[slot(ord)]; }
    /** True if push ordinal @p ord is still in the window. */
    bool live(u64 ord) const { return ord != 0 && ord + valid >= nextOrd; }

    std::vector<Entry> ring;
    /** Newest ordinal per bucket (0 = none). */
    std::vector<u64> bucketHead;
    size_t cap;
    u64 ringMask; ///< cap - 1 when cap is a power of two above 1, else 0.
    u64 bucketMask;
    u64 nextOrd = 1; ///< ordinal of the next push; never reset.
    size_t valid = 0;
};

} // namespace rsep::equality

#endif // RSEP_RSEP_FIFO_HISTORY_HH
