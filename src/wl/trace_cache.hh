/**
 * @file
 * Process-wide shared cache of validated `.rtr` traces.
 *
 * A matrix sweep replays the same (workload, phase) trace once per
 * mechanism arm: S scenarios x one file = S loads of identical
 * bytes. DecodedTraceCache collapses that to one load (envelope,
 * checksum and a validating walk of every record) — cells ask
 * for a trace by path, the cache hands every caller the same immutable
 * `shared_ptr<const DecodedTrace>` snapshot, and the pool's threads
 * replay it concurrently with nothing but a private cursor each
 * (ReplayTraceSource).
 *
 * Keying: (path, payload checksum). Every lookup reads only the file's
 * fixed-size trailer (envelope::readTrailer + peekChecksum), so a hit
 * never reads the payload, and a trace overwritten on disk —
 * re-recorded under a different sizing, say — misses naturally instead
 * of replaying stale records. Only a miss reads the whole file; its
 * entry is keyed by the checksum of the bytes it decoded, so a file
 * replaced between the two reads is never cached under the old key.
 *
 * Concurrency: one mutex guards the map; a cold lookup inserts an
 * in-flight marker, loads OUTSIDE the lock, then publishes and
 * notifies. Concurrent lookups of the same key wait on a condition
 * variable and count as hits — the decode-once guarantee holds even
 * when every pool thread starts on the same benchmark simultaneously.
 *
 * Bounding: LRU by payload bytes, capacity set with setCapacityBytes
 * (`--trace-cache-mb`; 0 = unlimited). Eviction drops only the map's
 * reference — cells mid-replay keep the data alive through their own
 * shared_ptr, so eviction can never invalidate a running cell.
 */

#ifndef RSEP_WL_TRACE_CACHE_HH
#define RSEP_WL_TRACE_CACHE_HH

#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "wl/trace_io.hh"

namespace rsep::wl
{

class DecodedTraceCache
{
  public:
    /** Outcome of a lookup: the shared decoded trace or a diagnostic. */
    struct Result
    {
        std::shared_ptr<const DecodedTrace> trace; ///< null on error.
        std::string error; ///< "path: message"; empty on success.
        bool hit = false;  ///< served from cache (incl. decode waiters).

        bool ok() const { return trace != nullptr; }
    };

    /** Monotonic counters since construction / resetStats(). */
    struct Stats
    {
        u64 hits = 0;
        u64 misses = 0;
        u64 evictions = 0;
        u64 decodeMicros = 0;  ///< total wall time spent decoding.
        u64 residentBytes = 0; ///< current payload bytes held (gauge).
    };

    explicit DecodedTraceCache(u64 capacity_bytes = defaultCapacityBytes)
        : capacity(capacity_bytes)
    {}

    /** Fetch the decoded form of @p path, decoding at most once per
     *  (path, checksum) across all threads. */
    Result get(const std::string &path);

    /** Resize the LRU bound; 0 = unlimited. Shrinking evicts at the
     *  next insertion, not eagerly. */
    void setCapacityBytes(u64 bytes);

    Stats stats() const;
    void resetStats();

    /** Drop every cached entry (tests; in-use shared_ptrs stay valid). */
    void clear();

    /** 1 GiB default: ~250M records at ~4 payload bytes each — far
     *  above any registered scenario, so the bound only matters when
     *  a fleet host dials it down. */
    static constexpr u64 defaultCapacityBytes = 1024ull << 20;

  private:
    struct Entry
    {
        std::shared_ptr<const DecodedTrace> trace; ///< null while loading.
        std::string error;   ///< set when the decode failed.
        bool ready = false;  ///< trace or error is final.
        u64 bytes = 0;
        std::list<std::string>::iterator lruIt; ///< valid when ready&&ok.
    };

    /** Pre-lock helper: bump @p key to most-recently-used. */
    void touch(const std::string &key, Entry &e);
    /** Pre-lock helper: evict LRU entries until under capacity. */
    void enforceCapacity();

    mutable std::mutex mu;
    std::condition_variable cv;
    /** key: path + '\0' + hex64(checksum). Entries are shared_ptr so a
     *  waiter or the decoding thread outlives any concurrent erase
     *  (failed decode, eviction, clear()). */
    std::map<std::string, std::shared_ptr<Entry>> entries;
    std::list<std::string> lru; ///< front = most recent; ready keys only.
    u64 capacity;
    u64 resident = 0;
    Stats counters;
};

/** The process-wide instance every replay path shares. */
DecodedTraceCache &traceCache();

} // namespace rsep::wl

#endif // RSEP_WL_TRACE_CACHE_HH
