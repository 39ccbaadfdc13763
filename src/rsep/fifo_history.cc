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

FifoHistory::FifoHistory(unsigned depth)
    : ring(depth), bucketHead(bucketCount(depth), 0), cap(depth),
      ringMask(depth > 1 && (depth & (depth - 1)) == 0 ? depth - 1 : 0),
      bucketMask(bucketHead.size() - 1)
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
FifoHistory::push(u16 hash, u32 csn, u64 seq, u64 value)
{
    u64 ord = nextOrd++;
    u64 &bucket = bucketHead[hash & bucketMask];
    ring[slot(ord)] = {hash, static_cast<u16>(csn & csnMask), seq, value,
                       bucket};
    bucket = ord;
    if (valid < cap)
        ++valid;
    ++pushes;
}

std::optional<HistoryMatch>
FifoHistory::match(u16 hash, u32 csn, std::optional<u32> predicted_dist) const
{
    u32 probe = csn & csnMask;
    std::optional<HistoryMatch> nearest;
    // Walk this bucket's entries newest -> oldest: the entries a scan
    // of the whole ring accepts, in the order it accepts them. Where the
    // scan would stop, `comparisons` takes the entries it would have
    // compared: every one from the newest (ordinal nextOrd - 1) down to
    // the stopping entry.
    for (u64 next = bucketHead[hash & bucketMask]; live(next);) {
        u64 ord = next;
        const Entry &e = at(ord);
        next = e.prevInBucket;
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
            comparisons += nextOrd - ord;
            ++matches;
            ++predictedDistanceMatches;
            return HistoryMatch{dist, e.seq, e.value, true};
        }
        if (!nearest) {
            nearest = HistoryMatch{dist, e.seq, e.value, false};
        } else if (!predicted_dist) {
            // Nearest found and nothing better to look for.
            comparisons += nextOrd - ord;
            ++matches;
            return nearest;
        }
    }
    // The walk ran out: a scan compares every entry in the window.
    comparisons += valid;
    if (nearest)
        ++matches;
    return nearest;
}

u64
FifoHistory::storageBits(unsigned hash_bits) const
{
    return cap * (hash_bits + csnBits);
}

} // namespace rsep::equality
