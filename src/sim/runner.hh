/**
 * @file
 * Experiment runner utilities shared by the bench harnesses: run a
 * (benchmark x configuration) matrix.
 */

#ifndef RSEP_SIM_RUNNER_HH
#define RSEP_SIM_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/sample_io.hh"
#include "sim/shard.hh"
#include "sim/simulator.hh"

namespace rsep::sim
{

/** Results of a benchmark row across configurations. */
struct MatrixRow
{
    std::string benchmark;
    std::vector<RunResult> byConfig; ///< parallel to the config list.
};

/**
 * Time-series sampling options of a run (`--sample-every` /
 * `--sample-dir` on every driver; see core/sampler.hh for the row
 * schema and sim/sample_io.hh for the `.rts` files).
 *
 * Run-level by design, like TraceIoOptions: sampling must not change
 * config hashes, cached results or the default stat dump — with
 * sampling off, every byte of output is identical to a build without
 * the feature. With sampling on, the matrix runner bypasses the
 * result cache (a cached cell cannot replay its timeline) and flushes
 * one `.rts` file per (benchmark, config, phase) cell after the
 * barrier.
 */
struct SampleOptions
{
    u64 every = 0;                ///< sample period in cycles; 0 = off.
    std::string dir = "samples";  ///< output directory for `.rts` files.

    bool active() const { return every > 0; }
};

/** Knobs of the parallel matrix runner. */
struct MatrixOptions
{
    /** Worker threads. 0 = auto: the RSEP_JOBS environment variable
     *  when set, otherwise the hardware thread count. */
    unsigned jobs = 0;
    bool progress = true; ///< per-cell progress lines on stderr.
    /** This process's slice of the matrix (`--shard i/N`). Runs owned
     *  by other shards are left with inShard = false and no phases. */
    ShardSpec shard;
    /** Root of the persistent per-cell result cache (`--cache-dir`);
     *  empty = no caching. Cached cells are not re-simulated. */
    std::string cacheDir;
    /** Recorded-trace record/replay directories (`--record-trace`,
     *  `--replay-trace`); see TraceIoOptions. Replay is consulted only
     *  for cells the result cache could not serve. */
    TraceIoOptions traceIo;
    /** Time-series sampling (`--sample-every`, `--sample-dir`). */
    SampleOptions sampling;
};

/** Hard ceiling on explicit worker-thread requests. */
constexpr unsigned maxJobs = 4096;

/** Resolve a job-count request (see MatrixOptions::jobs). A malformed
 *  or absurd RSEP_JOBS value warns and falls back to auto. */
unsigned resolveJobs(unsigned requested);

/**
 * Strictly parse one jobs value ("0" = auto), the value of every
 * binary's `--jobs N` / `-jN` option. Rejects non-numeric,
 * negative, overflowing or > maxJobs values with a diagnostic in
 * @p err instead of silently treating them as 0/auto.
 */
bool parseJobsValue(const std::string &s, unsigned &jobs,
                    std::string &err);

/**
 * Run every benchmark under every configuration (config 0 is
 * conventionally the baseline). The (benchmark x config x checkpoint)
 * cells fan out across a thread pool; per-cell seeding
 * is deterministic, so results are bit-identical at any thread count.
 * Progress goes to stderr. This is planMatrix, runCells and
 * finishMatrix, the cell aliases of sim/cell_alias.hh between the last
 * two, and the cache and trace-cache summaries.
 */
std::vector<MatrixRow>
runMatrix(const std::vector<SimConfig> &configs,
          const std::vector<std::string> &benchmarks,
          const MatrixOptions &opts = {});

/**
 * The layout of one matrix, shared by direct runs, the rsep_serve
 * daemon and the `--connect` client: cell (b, c, p) lives in
 * rows[b].byConfig[c].phases[p]. The layout and the per-cell seed
 * depend only on the inputs, never on scheduling, so a matrix is
 * bit-identical at any thread count, shard split, cache temperature
 * and over the wire.
 */
struct MatrixPlan
{
    /** Every (benchmark, config) run, labelled and marked inShard, with
     *  one empty phase slot per checkpoint when in this shard and none
     *  otherwise. */
    std::vector<MatrixRow> rows;
    /** configHash per config (computed once here; callers reuse it as
     *  the cache key and the stat-row identity). */
    std::vector<std::string> configHashes;
    size_t cells = 0; ///< in-shard (benchmark, config, checkpoint) cells.
    size_t runs = 0;  ///< in-shard (benchmark, config) runs.
};

/**
 * Lay out the (benchmark x config) matrix and mark @p shard's slice.
 * Config identity is the config hash, so two identical configs under
 * different labels land on the same shard.
 */
MatrixPlan planMatrix(const std::vector<SimConfig> &configs,
                      const std::vector<std::string> &benchmarks,
                      const ShardSpec &shard = {});

class ThreadPool;

/**
 * Submit one @p pool task per cell of @p plan, calling
 * @p run_cell(b, c, p, initial), and return when all of this plan's
 * cells have finished. Tasks other callers put on the same pool are
 * not waited for, so concurrent requests can share one pool.
 * @p run_cell writes only its own slot.
 *
 * Cells start in benchmark -> phase -> config order. @p initial hands
 * a live cell the post-init state of its (row, phase), built by the
 * first cell that asks and shared by the rest; it is dropped when the
 * last cell of that (row, phase) finishes, result-cache hits included,
 * so a matrix holds at most one state per worker and none after this
 * returns (DESIGN.md "Shared initial state").
 */
void runCells(ThreadPool &pool, const MatrixPlan &plan,
              const std::function<void(size_t b, size_t c, u32 p,
                                       const InitialStateSource &initial)>
                  &run_cell);

/**
 * The post-barrier step of a matrix. Folds every in-shard phase into
 * its run's RunTiming (checkpoints of one run land on different
 * workers, so this cannot happen inside the tasks) and, when
 * @p use_cache, counts each cell the cache did not serve as a miss.
 * When @p sampling is active, writes each phase's samples under
 * seriesHeader to sampling.dir and clears them.
 */
void finishMatrix(MatrixPlan &plan, const std::vector<SimConfig> &configs,
                  bool use_cache, const SampleOptions &sampling,
                  bool progress);

/**
 * Whether a matrix consults an enabled result cache: never while
 * sampling, because a cached cell has only end-of-run totals and no
 * timeline. Keeping every run on this one rule keeps direct, daemon
 * and `--connect` output identical at any cache temperature.
 */
inline bool
matrixUsesCache(bool cache_enabled, u64 sample_every)
{
    return cache_enabled && sample_every == 0;
}

/** The `.rts` header of cell (b, c, p)'s series, sampled every
 *  @p every cycles. */
SampleSeriesHeader seriesHeader(const MatrixPlan &plan,
                                const std::vector<SimConfig> &configs,
                                size_t b, size_t c, u32 p, u64 every);

/** One `[run]`/`[hit]`/`[rpl]`/`[als]` progress line on stderr for a
 *  finished cell, the @p k-th of @p total; an aliased cell also names
 *  the arm it was taken from. */
void printCellProgress(const PhaseResult &ph, const std::string &benchmark,
                       const std::string &label, u32 p, size_t k,
                       size_t total);

class ResultCache;

/**
 * Run one (benchmark, config, checkpoint) cell against an optional
 * shared result cache: look the cell up, simulate on a miss, store the
 * fresh result. The unit the rsep_serve batcher schedules, which lets
 * a long-running server share one ResultCache (and the process-wide
 * DecodedTraceCache) across many clients' requests; runMatrix takes
 * the same steps with the cell aliases of sim/cell_alias.hh between
 * the lookup and the simulation. @p cache may be null or disabled (plain
 * simulate); @p config_hash is configHash(cfg), precomputed by the
 * caller because batches hash each config exactly once. @p initial is
 * runPhase's: a hit never asks it.
 */
PhaseResult runCachedCell(ResultCache *cache, const SimConfig &cfg,
                          const std::string &benchmark,
                          const std::string &config_hash, u32 phase,
                          const TraceIoOptions &trace_io = {},
                          u64 sample_every = 0,
                          const InitialStateSource &initial = {});

} // namespace rsep::sim

#endif // RSEP_SIM_RUNNER_HH
