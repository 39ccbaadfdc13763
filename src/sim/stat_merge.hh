/**
 * @file
 * Offline half of the sharded-run toolchain: parse the CSV stat dumps
 * that sharded driver processes exported, validate that they tile the
 * experiment matrix (pairwise disjoint rows, complete benchmark x
 * scenario rectangle), merge them back into one canonical row set, and
 * derive the paper's figure summaries (per-benchmark speedup bars and
 * gmean rows) from the merged table. The same figure computation
 * prints the drivers' own tables from the rows of their dumps.
 *
 * Round-trip contract: parsing a dump written by CsvStatSink and
 * re-emitting it through the same sink reproduces the input byte for
 * byte, so `rsep_merge` over N shard dumps of a matrix emits exactly
 * the dump an unsharded run would have written
 * (tests/test_stat_merge.cc pins this).
 */

#ifndef RSEP_SIM_STAT_MERGE_HH
#define RSEP_SIM_STAT_MERGE_HH

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stat_export.hh"

namespace rsep::sim
{

/** Outcome of parsing one stat dump: rows, or a diagnostic. */
struct DumpParse
{
    std::vector<StatRow> rows;
    std::string error; ///< "origin: message"; empty on success.

    bool ok() const { return error.empty(); }
};

/** Parse a CsvStatSink dump (quoted fields, empty cell = no counter).
 *  Each row's counters come back sorted by name. */
DumpParse parseCsvDump(const std::string &text, const std::string &origin);

/** Load and parse a CSV dump file from disk. */
DumpParse parseDumpFile(const std::string &path);

/**
 * Merge per-shard row sets into one canonical set. Validates
 * disjointness: the same (benchmark, scenario, config hash) key in two
 * inputs — or twice in one input — is an error naming both origins.
 * @p origins parallels @p inputs (for diagnostics). Returns the empty
 * string on success, the diagnostic otherwise.
 */
std::string mergeStatRows(const std::vector<std::vector<StatRow>> &inputs,
                          const std::vector<std::string> &origins,
                          std::vector<StatRow> &out);

/**
 * Completeness check over a merged row set: every benchmark must
 * appear under every (scenario, config hash) arm — a hole means a
 * shard dump is missing or a sweep was interrupted. The benchmark set
 * is the union of @p expected_benchmarks and the benchmarks present in
 * @p rows; with an empty @p expected_benchmarks the check is derived
 * purely from the rows, which **cannot** notice a benchmark (or whole
 * arm) that every supplied dump is missing — pass the intended set
 * (rsep_merge `--expect-benchmarks`) to close that gap. Returns the
 * empty string when the rectangle is full, otherwise a diagnostic
 * listing the missing cells.
 */
std::string
checkCompleteness(const std::vector<StatRow> &rows,
                  const std::vector<std::string> &expected_benchmarks = {});

/**
 * True when @p name is a timing.* counter this build's RunTiming
 * schema (or the per-checkpoint timing.phaseN_wall_micros pattern)
 * defines. Non-timing counters are none of this function's business
 * (always false).
 */
bool knownTimingCounter(const std::string &name);

/**
 * The timing.* counter names in @p rows this build does not know —
 * evidence a dump came from a newer/older build whose timing schema
 * drifted. rsep_merge warns on these instead of passing them through
 * silently: the keys still merge (counters are opaque to the merge),
 * but the user is told the summary may be missing context.
 */
std::vector<std::string>
unknownTimingCounters(const std::vector<StatRow> &rows);

// ------------------------------------------------------------ figures
// Every printed figure number is computed from stat rows, and from
// their integer counters only: the drivers pass the rows their `--csv`
// dump is written from, rsep_merge the merged dumps, and both print
// the same digits.

/** Counter @p name of @p row (rows keep counters sorted by name); 0
 *  when the row does not carry it, as an empty dump cell reads. */
u64 counterOf(const StatRow &row, std::string_view name);

/** Counter @p name over committed_insts; 0 when nothing committed. */
double committedShare(const StatRow &row, std::string_view name);

/**
 * The IPC of @p row from its own counters, committed_insts / cycles
 * over its checkpoints; 0 without cycles. Every checkpoint commits its
 * measurement window (to within one commit group), so this is the
 * harmonic mean of the per-checkpoint IPCs, and it reads the same from
 * a driver's rows and from their dump.
 */
double rowIpc(const StatRow &row);

/** The row of (@p benchmark, @p scenario) in @p rows; null if none. */
const StatRow *findStatRow(const std::vector<StatRow> &rows,
                           const std::string &benchmark,
                           const std::string &scenario);

/**
 * A speedup figure: each (benchmark, arm) rowIpc ratio to the
 * baseline arm, in percent, and each arm's gmean. A benchmark with no usable
 * baseline IPC gets no bars: it is skipped and named, never shown as
 * a made-up 0% bar. Bars point into the rows the grid was built from.
 */
struct SpeedupGrid
{
    struct Arm
    {
        std::string name, configHash;
        size_t bars = 0;       ///< benchmarks with a bar.
        double gmeanPct = 0.0; ///< 0 without bars.
    };
    struct Bar
    {
        const StatRow *row = nullptr; ///< null: the rows hold none.
        double pct = 0.0;
    };
    std::string baseline;
    std::vector<Arm> arms;               ///< the others, in order.
    std::vector<std::string> benchmarks; ///< those with bars, in order.
    std::vector<std::vector<Bar>> bars;  ///< [benchmark][arm].
    std::vector<std::string> skipped;
};

/**
 * The speedup grid of @p rows over @p arms (the baseline first) and
 * @p benchmarks, each in display order. False (with @p err) when the
 * baseline has no rows or an arm has two config hashes.
 */
bool speedupGrid(const std::vector<StatRow> &rows,
                 const std::vector<std::string> &arms,
                 const std::vector<std::string> &benchmarks,
                 SpeedupGrid &grid, std::string *err = nullptr);

/** The drivers' fixed-width table of @p grid: a column per arm, a
 *  row per benchmark, a gmean row and the skipped benchmarks. */
void writeSpeedupTable(std::ostream &os, const SpeedupGrid &grid);

/**
 * The paper's figure summaries from a merged table: the speedup grid
 * over every benchmark and arm in name order, as one CSV-style row
 * per (benchmark, non-baseline arm) with its IPC and speedup, then one
 * gmean row per arm (Fig. 4/6/7 bars data).
 * @p baseline_scenario selects the divisor arm; "" means "the arm
 * named 'baseline' if present, else the lexicographically first".
 * Returns false (with @p err) when the baseline is unknown.
 */
bool writeFigureSummary(std::ostream &os, const std::vector<StatRow> &rows,
                        const std::string &baseline_scenario,
                        std::string *err = nullptr);

} // namespace rsep::sim

#endif // RSEP_SIM_STAT_MERGE_HH
