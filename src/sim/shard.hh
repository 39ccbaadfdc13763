/**
 * @file
 * Deterministic sharding of an experiment matrix across processes and
 * hosts (`--shard i/N` on every bench/example driver).
 *
 * The unit of distribution is the **run cell** — one (benchmark,
 * config) pair with all of its checkpoints. Keeping a run's checkpoints
 * together means every stat-export row is produced wholly by one shard,
 * so shard dumps are row-disjoint and `rsep_merge` can reassemble the
 * exact unsharded table.
 *
 * Assignment is by a stable FNV-1a hash of the cell identity
 * (benchmark name + config hash), *not* by position in the expanded
 * list: adding or removing scenarios or benchmarks never reshuffles
 * the shard that any existing cell lands on, which is what lets a
 * partially-complete sweep grow without invalidating cached or
 * already-exported shards. sim::planMatrix (runner.hh) marks a
 * shard's slice in the matrix layout.
 */

#ifndef RSEP_SIM_SHARD_HH
#define RSEP_SIM_SHARD_HH

#include <string>

#include "common/types.hh"

namespace rsep::sim
{

/** Hard ceiling on the shard count (mirrors the jobs ceiling). */
constexpr unsigned maxShards = 4096;

/** One process's slice of the matrix: shard `index` of `count`. */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 1;

    /** True when the run is actually split (1/1 is the full matrix). */
    bool active() const { return count > 1; }
};

/** Stable FNV-1a 64 identity hash of one run cell. */
u64 cellIdentityHash(const std::string &benchmark,
                     const std::string &config_hash);

/** Shard that owns the (benchmark, config-hash) run cell. */
unsigned shardOf(const std::string &benchmark,
                 const std::string &config_hash, unsigned shard_count);

/**
 * Strictly parse an "i/N" shard spec (0-based, i < N, N <= maxShards).
 * On failure returns false with a diagnostic in @p err.
 */
bool parseShardValue(const std::string &s, ShardSpec &shard,
                     std::string &err);

} // namespace rsep::sim

#endif // RSEP_SIM_SHARD_HH
