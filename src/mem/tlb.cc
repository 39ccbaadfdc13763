#include "mem/tlb.hh"

namespace rsep::mem
{

Tlb::Tlb(unsigned n, Cycle walk_latency, unsigned page_shift)
    : entries(n), walkLatency(walk_latency), pageShift(page_shift)
{
}

Tlb::Tlb(const Tlb &o)
    : hits(o.hits), misses(o.misses), entries(o.entries),
      mru(o.mru ? entries.data() + (o.mru - o.entries.data()) : nullptr),
      walkLatency(o.walkLatency), pageShift(o.pageShift),
      useClock(o.useClock)
{
}

Cycle
Tlb::access(Addr vaddr)
{
    ++useClock;
    Addr vpn = vaddr >> pageShift;
    // MRU shortcut: page locality makes most accesses hit the entry
    // the previous one did. Replicates the scan's hit-path side
    // effects exactly (lastUse refresh + hit count), so eviction order
    // and stats are unchanged. The pointer survives evictions (the
    // entry vector never reallocates); a recycled entry simply fails
    // the vpn compare.
    if (mru && mru->valid && mru->vpn == vpn) {
        mru->lastUse = useClock;
        ++hits;
        return 0;
    }
    Entry *lru = &entries[0];
    for (auto &e : entries) {
        if (e.valid && e.vpn == vpn) {
            e.lastUse = useClock;
            ++hits;
            mru = &e;
            return 0;
        }
        if (!e.valid) {
            lru = &e;
        } else if (lru->valid && e.lastUse < lru->lastUse) {
            lru = &e;
        }
    }
    ++misses;
    *lru = {true, vpn, useClock};
    mru = lru;
    return walkLatency;
}

} // namespace rsep::mem
