/**
 * @file
 * Experiment runner utilities shared by the bench harnesses: run a
 * (benchmark x configuration) matrix and print paper-style rows.
 */

#ifndef RSEP_SIM_RUNNER_HH
#define RSEP_SIM_RUNNER_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

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
 * one `.rts` + `.csv` pair per (benchmark, config, phase) cell after
 * the barrier.
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
 * Strictly parse one jobs value ("0" = auto). Rejects non-numeric,
 * negative, overflowing or > maxJobs values with a diagnostic in
 * @p err instead of silently treating them as 0/auto.
 */
bool parseJobsValue(const std::string &s, unsigned &jobs,
                    std::string &err);

/**
 * Parse a `--jobs N` / `--jobs=N` / `-jN` override out of argv (the
 * bench and example drivers all accept it), leaving 0 (= auto) when
 * absent. Unrelated arguments are left untouched. On a malformed
 * value, returns false with a diagnostic in @p err.
 */
bool parseJobsArg(int argc, char **argv, unsigned &jobs,
                  std::string &err);

/**
 * Run every benchmark under every configuration (config 0 is
 * conventionally the baseline). The (benchmark x config x checkpoint)
 * cells fan out across a work-stealing thread pool; per-cell seeding
 * is deterministic, so results are bit-identical at any thread count.
 * Progress goes to stderr.
 */
std::vector<MatrixRow>
runMatrix(const std::vector<SimConfig> &configs,
          const std::vector<std::string> &benchmarks,
          const MatrixOptions &opts = {});

class ResultCache;

/**
 * Run one (benchmark, config, checkpoint) cell against an optional
 * shared result cache: look the cell up, simulate on a miss, store the
 * fresh result. The unit both runMatrix and the rsep_serve batcher
 * schedule — extracting it is what lets a long-running server share
 * one ResultCache (and the process-wide DecodedTraceCache) across many
 * clients' requests. @p cache may be null or disabled (plain
 * simulate); @p config_hash is configHash(cfg), precomputed by the
 * caller because batches hash each config exactly once.
 */
PhaseResult runCachedCell(ResultCache *cache, const SimConfig &cfg,
                          const std::string &benchmark,
                          const std::string &config_hash, u32 phase,
                          const TraceIoOptions &trace_io = {},
                          u64 sample_every = 0);

/**
 * Print a speedup table: one row per benchmark, one column per non-
 * baseline configuration, in percent over configuration 0, plus a
 * geometric-mean summary row (the paper reports per-benchmark bars).
 */
void printSpeedupTable(std::ostream &os, const std::vector<MatrixRow> &rows,
                       const std::vector<SimConfig> &configs);

/** Print a generic percent table computed by @p cell per row/column. */
void printPctTable(std::ostream &os, const std::vector<MatrixRow> &rows,
                   const std::vector<std::string> &col_names,
                   const std::function<double(const MatrixRow &, size_t col)>
                       &cell);

/** Simple fixed-width cell helpers. */
std::string fmtPct(double v);

} // namespace rsep::sim

#endif // RSEP_SIM_RUNNER_HH
