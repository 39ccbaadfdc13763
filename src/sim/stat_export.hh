/**
 * @file
 * Unified stat-export layer: flatten an experiment matrix into rows
 * keyed by (benchmark, scenario name, config hash) and write them as
 * the CSV dump (`--csv`) or the human `--stats` table. Counters cover
 * every PipelineStats field (via its visitStats introspection hook)
 * plus the per-engine SpeculationEngine::statEntries() snapshots.
 */

#ifndef RSEP_SIM_STAT_EXPORT_HH
#define RSEP_SIM_STAT_EXPORT_HH

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hh"
#include "sim/sample_io.hh"

namespace rsep::sim
{

/** One (benchmark, scenario) cell of the matrix, flattened. */
struct StatRow
{
    std::string benchmark;
    std::string scenario;   ///< config label (scenario name).
    std::string configHash; ///< stable 16-hex config identity.
    size_t checkpoints = 0;
    double ipcHmean = 0.0;
    /** (name, value) pairs summed over checkpoints: pipeline counters,
     *  commit_group_producers_<b> histogram buckets, engine.* and —
     *  only when timings were requested — timing.*. Canonical rows
     *  keep this sorted by name. */
    std::vector<std::pair<std::string, u64>> counters;
};

/**
 * Canonical dump order: rows sorted by (benchmark, scenario, config
 * hash), counters within each row sorted by name. Both the collector
 * and the merge tool normalise through this, which is what makes a
 * sharded-and-merged dump byte-identical to the unsharded one.
 */
void canonicalizeStatRows(std::vector<StatRow> &rows);

/**
 * Flatten runMatrix output into canonical rows. @p configs parallels
 * MatrixRow::byConfig. Runs owned by another shard (inShard = false)
 * produce no row. @p include_timings adds the host-dependent timing.*
 * counters (RunTiming) — off by default so dumps of the same matrix
 * are bit-reproducible across runs, shards and cache temperatures.
 */
std::vector<StatRow>
collectStatRows(const std::vector<SimConfig> &configs,
                const std::vector<MatrixRow> &rows,
                bool include_timings = false);

/** Human-readable per-cell dump (the `--stats` matrix table): each
 *  row's per-engine counters; the raw pipeline counters are left to
 *  the CSV dump. */
class TableStatSink
{
  public:
    void write(std::ostream &os, const std::vector<StatRow> &rows) const;
};

/** RFC-4180-style CSV; one column per counter (union across rows). */
class CsvStatSink
{
  public:
    void write(std::ostream &os, const std::vector<StatRow> &rows) const;
};

/** Write rows to @p path as CSV; false + @p err on I/O failure. */
bool writeStatsFile(const std::string &path,
                    const std::vector<StatRow> &rows,
                    std::string *err = nullptr);

/**
 * Export sink of the time-series sampling mode (`--sample-every`):
 * collects per-cell StatSample series during a matrix run and flushes
 * each to `<dir>/<bench>-<confighash>-p<phase>.rts` (atomic, see
 * sample_io.hh). One cell = one file, so sharded runs compose by
 * directory union exactly like recorded traces; `rsep_samples dump`
 * renders a cell as CSV and `rsep_samples merge` pools shards' series
 * the way rsep_merge pools stat dumps.
 *
 * Not thread-safe: the matrix runner queues cells post-barrier on the
 * coordinating thread (sample rows are deterministic, so the flush
 * order never affects file contents).
 */
class TimeSeriesSink
{
  public:
    explicit TimeSeriesSink(std::string dir) : outDir(std::move(dir)) {}

    const std::string &dir() const { return outDir; }
    size_t queued() const { return series.size(); }

    /** Queue one cell's series (empty series are dropped — a cell
     *  below one sample period still flushes its final partial row,
     *  so empty means sampling was off for the cell). */
    void add(SampleSeriesHeader header,
             std::vector<core::StatSample> rows);

    /** Write every queued series; false (fail fast) with @p err. */
    bool flush(std::string *err = nullptr);

  private:
    std::string outDir;
    std::vector<std::pair<SampleSeriesHeader,
                          std::vector<core::StatSample>>>
        series;
};

} // namespace rsep::sim

#endif // RSEP_SIM_STAT_EXPORT_HH
