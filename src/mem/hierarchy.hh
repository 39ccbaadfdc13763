/**
 * @file
 * The full memory hierarchy facade (Table I): L1I/L1D + unified private
 * L2 + shared L3, stride/stream prefetchers, TLBs and DDR4 behind.
 */

#ifndef RSEP_MEM_HIERARCHY_HH
#define RSEP_MEM_HIERARCHY_HH

#include <optional>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/prefetch.hh"
#include "mem/tlb.hh"

namespace rsep::mem
{

/** Hierarchy configuration (defaults = Table I). */
struct HierarchyParams
{
    CacheParams l1i{.name = "l1i", .sizeBytes = 32 * 1024, .assoc = 8,
                    .latency = 1, .mshrs = 16};
    CacheParams l1d{.name = "l1d", .sizeBytes = 32 * 1024, .assoc = 8,
                    .latency = 4, .mshrs = 64};
    CacheParams l2{.name = "l2", .sizeBytes = 256 * 1024, .assoc = 16,
                   .latency = 12, .mshrs = 64};
    CacheParams l3{.name = "l3", .sizeBytes = 6 * 1024 * 1024, .assoc = 24,
                   .latency = 21, .mshrs = 64};
    DramParams dram{};
    unsigned itlbEntries = 128;
    unsigned dtlbEntries = 64;
    Cycle tlbWalkLatency = 30;
    bool enablePrefetch = true;
};

/** Latency-returning memory system. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params = HierarchyParams{});

    /** Instruction line fetch at @p now; @return completion cycle. */
    Cycle ifetch(Addr addr, Cycle now);

    /** Data load issued at @p now; @return data-ready cycle. */
    Cycle load(Addr pc, Addr addr, Cycle now);

    /** Store performing at commit (write-allocate, non-blocking). */
    void storeCommit(Addr addr, Cycle now);

    const HierarchyParams &params() const { return p; }

    /** A copy holds its cache levels frozen (CacheLevel's copy):
     *  unpack them before the first access. */
    void thaw();

    CacheLevel &l1iCache() { return l1i; }
    CacheLevel &l1dCache() { return l1d; }
    CacheLevel &l2Cache() { return l2; }
    CacheLevel &l3Cache() { return l3; }
    Dram &dram() { return ddr; }
    Tlb &itlbUnit() { return itlb; }
    Tlb &dtlbUnit() { return dtlb; }

  private:
    /**
     * Walk L2/L3/DRAM for a line missing in the L1 of interest and
     * return its fill-completion cycle.
     * @param run_prefetch drive the L2/L3 stream prefetchers.
     */
    Cycle fillFromBeyondL1(Addr addr, Cycle now, bool is_write,
                           bool run_prefetch);

    /** Issue a degree-1 prefetch of @p addr into @p level. */
    void prefetchInto(CacheLevel &level, Addr addr, Cycle now,
                      Cycle source_latency);

    HierarchyParams p;
    CacheLevel l1i;
    CacheLevel l1d;
    CacheLevel l2;
    CacheLevel l3;
    Dram ddr;
    Tlb itlb;
    Tlb dtlb;
    StridePrefetcher l1dStride;
    StreamPrefetcher l2Stream;
    StreamPrefetcher l3Stream;
};

} // namespace rsep::mem

#endif // RSEP_MEM_HIERARCHY_HH
