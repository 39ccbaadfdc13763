/**
 * @file
 * Result-cache garbage collection (`rsep_merge --gc`).
 *
 * A `--cache-dir` grows monotonically: every simulated cell leaves a
 * record, and records keyed by retired config hashes (edited scenario
 * files, changed sweep parameters) are never read again. The collector
 * walks a cache directory and removes:
 *
 *  - **stale** records — `.cell` files whose config hash (parsed from
 *    the `<hash>-p<phase>-s<seed>.cell` filename) is not in the live
 *    set derived from a given scenario set;
 *  - **quarantine debris** — `.corrupt` files left by the loader;
 *  - **LRU overflow** — when a `--max-bytes` cap is given, the oldest
 *    surviving records by mtime until the cache fits.
 *
 * Files matching neither pattern are never touched. Registry and
 * scenario-file arms share one run sizing (SimConfig's defaults under
 * the environment scaling), so one config hash per arm (and per
 * `--seed` variant) is the whole live set.
 */

#ifndef RSEP_SIM_CACHE_GC_HH
#define RSEP_SIM_CACHE_GC_HH

#include <set>
#include <string>
#include <vector>

#include "common/types.hh"

namespace rsep::sim
{

/** What to collect. */
struct GcOptions
{
    std::string cacheDir;
    /** Config hashes still referenced by the scenario set; a record
     *  keyed by any other hash is stale. Empty = keep every record
     *  (only quarantine debris and the size cap apply). */
    std::set<std::string> liveHashes;
    u64 maxBytes = 0;    ///< 0 = no size cap.
    bool dryRun = false; ///< report what would be removed, remove nothing.
};

/** What was (or would be) collected. */
struct GcReport
{
    u64 scannedFiles = 0;    ///< .cell records seen.
    u64 scannedBytes = 0;
    u64 staleRemoved = 0;    ///< records with a dead config hash.
    u64 corruptRemoved = 0;  ///< quarantined .corrupt files.
    u64 lruRemoved = 0;      ///< live records evicted by --max-bytes.
    u64 removedBytes = 0;
    u64 keptFiles = 0;
    u64 keptBytes = 0;
};

/**
 * Parse the config hash out of a `.cell` filename. Thin alias of
 * ResultCache::fileConfigHash, which lives next to the cellPath
 * composer so the two sides of the naming grammar cannot drift.
 * Empty when the name does not match the record naming scheme.
 */
std::string cellFileConfigHash(const std::string &filename);

/** Run the collection. Returns the empty string on success, otherwise
 *  a diagnostic (the report is still valid for what was processed). */
std::string runCacheGc(const GcOptions &opts, GcReport &report);

} // namespace rsep::sim

#endif // RSEP_SIM_CACHE_GC_HH
