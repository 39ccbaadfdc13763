/**
 * @file
 * Persistent per-cell result cache (`--cache-dir` on every driver).
 *
 * One record per simulated cell, keyed on the stable (benchmark,
 * config hash, phase, seed) identity — the same key the stat-export
 * layer and the shard partitioner use. `runMatrix` consults the cache
 * before simulating a cell and stores the cell's PhaseResult after, so
 * interrupted sweeps resume where they stopped and repeated sweeps
 * (re-runs, overlapping shards, grown scenario files) never re-simulate
 * a cell.
 *
 * A record is an envelope::seal image (common/envelope.hh): the key
 * echo (benchmark, config hash, phase, seed) in the header, and the
 * IPC bits, wall time, every introspected pipeline counter, the
 * commit-group histogram and the per-engine counters as checksummed
 * text lines in the payload. Records are published atomically
 * (envelope::publishFile). A record that fails any validation step —
 * wrong magic or version, checksum mismatch, truncation, a key echo
 * that does not match the requested cell, counter-set drift against
 * the current binary — is **quarantined** (renamed to `<cell>.corrupt`)
 * and treated as a miss, so one damaged file can never poison a sweep
 * or wedge a resume loop.
 */

#ifndef RSEP_SIM_RESULT_CACHE_HH
#define RSEP_SIM_RESULT_CACHE_HH

#include <atomic>
#include <optional>
#include <string>

#include "sim/simulator.hh"

namespace rsep::sim
{

/** Identity of one cached cell. */
struct CacheKey
{
    std::string benchmark;
    std::string configHash; ///< configHash(cfg): covers seed + sizing.
    u32 phase = 0;
    u64 seed = 0; ///< echoed for legibility; already part of the hash.
};

/** Record-format version; bump on any layout change.
 *  v3: the trailer checksum is XXH64 (envelope::checksum). */
constexpr unsigned resultCacheVersion = 3;

/** A file-backed, thread-safe cell cache rooted at one directory. */
class ResultCache
{
  public:
    /** An empty @p dir disables the cache (every lookup misses). */
    explicit ResultCache(std::string dir);

    bool enabled() const { return !root.empty(); }
    const std::string &dir() const { return root; }

    /**
     * Look up one cell. Returns the cached PhaseResult (with
     * fromCache set) on a hit; nullopt on a miss or after
     * quarantining an invalid record.
     */
    std::optional<PhaseResult> load(const CacheKey &key);

    /** Persist one cell (atomic write-rename). False on I/O failure. */
    bool store(const CacheKey &key, const PhaseResult &pr);

    /** Monotonic cache-traffic counters (thread-safe snapshots). */
    struct Counters
    {
        u64 hits = 0;
        u64 misses = 0;
        u64 stores = 0;
        u64 quarantined = 0;
        u64 ioErrors = 0;
    };
    Counters counters() const;

    /** On-disk location of a cell record (for tests and tooling). */
    std::string cellPath(const CacheKey &key) const;

    /**
     * Parse the config hash back out of a record filename
     * (`<16-hex>-p<phase>-s<16-hex>.cell` — the cellPath grammar; keep
     * the two together). Empty when the name is not a cache record.
     * The cache GC's liveness matching keys on this.
     */
    static std::string fileConfigHash(const std::string &filename);

    /** Serialize / parse one sealed record image (the file bytes, and
     *  the blob of an rsep_serve Cell frame). */
    static std::string serializeRecord(const CacheKey &key,
                                       const PhaseResult &pr);
    /** Empty error = success. A non-empty error means "invalid record"
     *  (the caller quarantines); parse never partially fills @p pr. */
    static std::string parseRecord(const std::string &text,
                                   const CacheKey &key, PhaseResult &pr);

  private:
    std::string root;
    std::atomic<u64> nHits{0};
    std::atomic<u64> nMisses{0};
    std::atomic<u64> nStores{0};
    std::atomic<u64> nQuarantined{0};
    std::atomic<u64> nIoErrors{0};
};

} // namespace rsep::sim

#endif // RSEP_SIM_RESULT_CACHE_HH
