/**
 * @file
 * A set-associative cache level with LRU replacement and MSHR-limited
 * outstanding misses, used for L1I/L1D/L2/L3 (Table I).
 *
 * The model is latency-based: tags are updated at access time and the
 * access returns its completion cycle; fills are not separately
 * scheduled (standard simplification for core-side studies -- the
 * quantities that matter here are hit/miss latencies, MSHR pressure
 * and miss traffic).
 *
 * Storage is sized for what a run touches, not for the capacity
 * (DESIGN.md §16). Nothing ever invalidates a line and a miss fills the
 * lowest free way, so the valid ways of a set are always a prefix:
 * a per-set fill count replaces the valid bits, the tag array is never
 * zeroed, and lookups scan only the filled ways. The MSHR file is an
 * unordered array with a cached earliest completion, so reaping is a
 * compare until some miss is due and tracking a miss never allocates
 * while the file holds at most `mshrs` entries.
 */

#ifndef RSEP_MEM_CACHE_HH
#define RSEP_MEM_CACHE_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rsep::mem
{

constexpr unsigned lineShift = 6;   ///< 64B lines.
constexpr Addr lineBytes = Addr{1} << lineShift;

/** Cache level configuration. */
struct CacheParams
{
    std::string name = "cache";
    u64 sizeBytes = 32 * 1024;
    unsigned assoc = 8;       ///< at most 255 (the fill count is a byte).
    Cycle latency = 4;        ///< total load-to-use latency at this level.
    unsigned mshrs = 64;
};

/** One cache level. */
class CacheLevel
{
  public:
    explicit CacheLevel(const CacheParams &params);

    /**
     * Probe for line presence *and* update LRU/allocate on miss.
     * @return true on hit.
     */
    bool accessTags(Addr addr, bool is_write);

    /** Probe without modifying state (for tests/inclusive checks). */
    bool peek(Addr addr) const;

    /**
     * MSHR tracking: register an outstanding miss completing at
     * @p ready. @return the (possibly merged / MSHR-delayed) completion
     * cycle the requester should use. A miss that stalls on a full file
     * is still registered, so the file may hold more than `mshrs`.
     */
    Cycle trackMiss(Addr addr, Cycle now, Cycle ready);

    /**
     * Expire MSHRs completing at or before @p now (called lazily from
     * trackMiss/pendingFill too). @p now may be earlier than on the
     * previous call; expired entries stay gone.
     */
    void reapMshrs(Cycle now);

    /**
     * If a fill for @p addr is still in flight, return its completion
     * cycle (hit-under-fill: tags already allocated but data not back).
     */
    std::optional<Cycle> pendingFill(Addr addr, Cycle now);

    const CacheParams &params() const { return p; }

    StatCounter hits;
    StatCounter misses;
    StatCounter mshrMerges;
    StatCounter mshrStalls;
    StatCounter prefetchFills;

  private:
    /** A way's line and LRU stamp; way w of set s is valid iff w < fill[s]. */
    struct Way
    {
        Addr tag;
        u64 lastUse;
    };

    /** An outstanding line miss. */
    struct Mshr
    {
        Addr line;
        Cycle ready;
    };

    CacheParams p;
    unsigned sets;
    /** sets x assoc ways, left uninitialised beyond each set's fill. */
    std::unique_ptr<Way[]> ways;
    /** Valid ways per set: ways [0, fill[s]) of set s hold lines. */
    std::vector<u8> fill;
    u64 useClock = 0;
    /** Outstanding line misses, unordered, one entry per line. */
    std::vector<Mshr> outstanding;
    /** Minimum ready cycle in `outstanding` (invalidCycle if empty). */
    Cycle earliestReady = invalidCycle;

    size_t setOf(Addr addr) const { return (addr >> lineShift) & (sets - 1); }
    Addr tagOf(Addr addr) const { return addr >> lineShift; }
    const Mshr *findMshr(Addr line) const;
};

} // namespace rsep::mem

#endif // RSEP_MEM_CACHE_HH
