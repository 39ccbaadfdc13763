#include "rsep/fifo_history.hh"

namespace rsep::equality
{

namespace
{

/** Bucket count: the power of two at or above 2 x depth, capped at the
 *  16-bit hash space (more buckets could not split any chain). */
size_t
bucketCount(size_t depth)
{
    size_t n = 1;
    while (n < 2 * depth && n < (size_t{1} << 16))
        n <<= 1;
    return n;
}

} // namespace

FifoHistory::FifoHistory(unsigned depth, bool implicit_all)
    : ring(depth), bucketHead(bucketCount(depth), 0), cap(depth),
      bucketMask(bucketHead.size() - 1), implicitAll(implicit_all)
{
}

void
FifoHistory::clear()
{
    // Ordinals keep counting, so every entry and bucket head from before
    // the clear is older than the (now empty) window and reads as dead.
    valid = 0;
}

void
FifoHistory::push(u16 hash, u32 csn, u64 seq, bool produces_reg, u64 value)
{
    if (!implicitAll && !produces_reg)
        return;
    u64 ord = nextOrd++;
    Entry &e = ring[ord % cap];
    // Non-producers (implicit variant) hold a slot but join no bucket
    // chain: the scan never compared them.
    e = {hash, static_cast<u16>(csn & csnMask), seq, value, 0, producers};
    if (produces_reg) {
        u64 &bucket = bucketHead[hash & bucketMask];
        e.prevInBucket = bucket;
        bucket = ord;
        ++producers;
    }
    if (valid < cap)
        ++valid;
    ++pushes;
}

std::optional<HistoryMatch>
FifoHistory::match(u16 hash, u32 csn, std::optional<u32> predicted_dist) const
{
    u32 probe = csn & csnMask;
    std::optional<HistoryMatch> nearest;
    // Walk this bucket's producers newest -> oldest: the entries a scan
    // of the whole ring accepts, in the order it accepts them. Where the
    // scan would stop, `comparisons` takes the producers it would have
    // compared: every one from the newest down to the stopping entry.
    for (u64 ord = bucketHead[hash & bucketMask]; live(ord);) {
        const Entry &e = at(ord);
        ord = e.prevInBucket;
        if (e.hash != hash)
            continue;
        u32 dist = csnDistance(probe, e.csn);
        // dist == 0 is the probing instruction's own entry; distances
        // beyond half the CSN space are wrapped (an entry younger in
        // the same commit group, or stale) -- hardware knows the scan
        // direction and ignores both.
        if (dist == 0 || dist > csnMask / 2)
            continue;
        if (predicted_dist && dist == *predicted_dist) {
            comparisons += producers - e.prodBefore;
            ++matches;
            ++predictedDistanceMatches;
            return HistoryMatch{dist, e.seq, e.value, true};
        }
        if (!nearest) {
            nearest = HistoryMatch{dist, e.seq, e.value, false};
        } else if (!predicted_dist) {
            // Nearest found and nothing better to look for.
            comparisons += producers - e.prodBefore;
            ++matches;
            return nearest;
        }
    }
    // The walk ran out: a scan compares every producer in the window.
    if (valid)
        comparisons += producers - at(nextOrd - valid).prodBefore;
    if (nearest)
        ++matches;
    return nearest;
}

u64
FifoHistory::storageBits(unsigned hash_bits) const
{
    return cap * (implicitAll ? hash_bits + 1 : hash_bits + csnBits);
}

} // namespace rsep::equality
