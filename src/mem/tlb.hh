/**
 * @file
 * Fully-associative LRU TLBs (128-entry ITLB, 64-entry DTLB, Table I)
 * with a flat page-walk penalty on miss.
 */

#ifndef RSEP_MEM_TLB_HH
#define RSEP_MEM_TLB_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rsep::mem
{

/** A TLB level; returns the extra latency an access pays (0 on hit). */
class Tlb
{
  public:
    explicit Tlb(unsigned entries = 64, Cycle walk_latency = 30,
                 unsigned page_shift = 12);

    /** A copy's MRU shortcut points into its own entries. */
    Tlb(const Tlb &o);
    Tlb &operator=(const Tlb &) = delete;

    /** Translate; @return additional cycles (0 = hit, walk on miss). */
    Cycle access(Addr vaddr);

    StatCounter hits;
    StatCounter misses;

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        u64 lastUse = 0;
    };

    std::vector<Entry> entries;
    Entry *mru = nullptr; ///< last entry hit (scan shortcut).
    Cycle walkLatency;
    unsigned pageShift;
    u64 useClock = 0;
};

} // namespace rsep::mem

#endif // RSEP_MEM_TLB_HH
