/**
 * @file
 * Shared driver harness for the bench and example binaries: every
 * driver declares a HarnessSpec (its default scenarios, benchmarks and
 * bespoke report) and delegates flag handling, scenario resolution,
 * the matrix run and stat export to runHarness. Flags come from one
 * option table (common/cli.hh), which also renders --help. Every
 * driver takes the scenario-selection options (--scenario,
 * --scenario-file, --list-scenarios); drivers that run a matrix also
 * take --workload, --workload-file, --list-workloads, --csv, --stats,
 * --timings, --seed, --jobs, --shard, --cache-dir, --record-trace,
 * --replay-trace, --trace-cache-mb, --sample-every, --sample-dir,
 * --connect, --connect-timeout, --deadline, --retries and --fault.
 *
 * Run sizing is SimConfig's: its defaults scaled by RSEP_SIM_SCALE and
 * RSEP_CHECKPOINTS, the same for registry arms and scenario files.
 */

#ifndef RSEP_BENCH_BENCH_UTIL_HH
#define RSEP_BENCH_BENCH_UTIL_HH

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/stat_merge.hh"
#include "wl/suite.hh"

namespace rsep::bench
{

/** The benchmarks the paper highlights for RSEP (Section VI-B). */
std::vector<std::string> highlightBenchmarks();

/** Everything runHarness parsed off the command line. */
struct DriverContext
{
    sim::MatrixOptions matrix; ///< jobs, --shard, --cache-dir,
                               ///< --record-trace/--replay-trace.
    /** From --scenario / --scenario-file, in flag order; non-empty
     *  overrides the driver's default arms. */
    std::vector<sim::Scenario> scenarios;
    /** Run-cell keys from --workload / --workload-file, in flag order
     *  (already resolved through the workload registry); non-empty
     *  overrides the driver's benchmark set. */
    std::vector<std::string> workloads;
    std::string csvPath;
    bool statsTable = false;
    /** --timings: add the host-dependent wall-clock and cache counters
     *  (timing.<name>) to the dumps (off by default so dumps stay
     *  bit-reproducible). */
    bool timings = false;
    /** --seed N: override every run scenario's [sim] seed (changes the
     *  config hash, hence shard assignment and cache identity). */
    std::optional<u64> seed;
    /** --connect SOCK: run the matrix on a warm rsep_serve daemon
     *  instead of in-process. Output is byte-identical to a direct
     *  run; server-side resources (--jobs, --cache-dir, --shard,
     *  --record-trace, --trace-cache-mb) are rejected with a
     *  clear error — they belong on the rsep_serve command line. */
    std::string connectSocket;
    /** --connect-timeout MS: keep re-trying the initial connect this
     *  long (daemon still warming up); 0 = one attempt. */
    u64 connectTimeoutMs = 0;
    /** --deadline MS: hard ceiling on the whole remote request
     *  including retries; 0 = none. */
    u64 deadlineMs = 0;
    /** --retries N: reconnect+resubmit attempts after a transient
     *  failure or Busy rejection (default 3; 0 = fail fast). */
    unsigned retries = 3;
    std::vector<std::string> positional;
};

/** The matrix a harness run produced. */
struct HarnessResult
{
    std::vector<sim::SimConfig> configs;
    std::vector<sim::MatrixRow> rows;
};

/**
 * What a report reads: the arms and benchmarks in matrix order, and
 * the stat rows the run's `--csv` dump is written from, at full IPC
 * precision, one per (benchmark, arm). Counters are read by their
 * dump names (sim::counterOf).
 */
struct ReportInput
{
    const std::vector<sim::SimConfig> &configs;
    const std::vector<std::string> &benchmarks;
    const std::vector<sim::StatRow> &rows;

    /** The row of (@p benchmark, configs[@p arm]). */
    const sim::StatRow &row(const std::string &benchmark, size_t arm) const;

    /** Print the speedup table of the arms labelled @p arms, the
     *  baseline first, over every benchmark; empty = every arm. */
    void printSpeedups(std::ostream &os,
                       std::vector<std::string> arms = {}) const;
};

/** A driver's bespoke tables over a full (unsharded) matrix. */
using Report = std::function<void(const ReportInput &)>;

/** Static description of one driver binary. */
struct HarnessSpec
{
    const char *name = "driver";
    const char *description = "";
    /** Registered scenario names run by a flag-less invocation. */
    std::vector<std::string> defaultScenarios;
    /** Default benchmark set; empty = the full 29-bench suite. */
    std::vector<std::string> benchmarks;
    /** False for drivers that run no experiment matrix: they take only
     *  the scenario-selection options, so a matrix flag is an unknown
     *  option rather than a silent no-op. */
    bool runsMatrix = true;
    /** Positional arguments name benchmarks to run. */
    bool positionalBenchmarks = false;
    /** Usage suffix for a custom driver's positional arguments (which
     *  are then accepted into DriverContext::positional). */
    const char *positionalHelp = nullptr;
    /** Bespoke tables for the default arm set (kept byte-identical to
     *  the pre-harness drivers); scenario overrides use the generic
     *  speedup table instead. */
    Report report;
    /** Full-control drivers (sweeps, single-run dumps): invoked with
     *  the parsed context instead of the default-arm matrix. Scenario
     *  overrides still take the generic path in matrix drivers. */
    std::function<int(const DriverContext &)> custom;
};

/**
 * Run a driver: parse flags (--help and the listings exit here),
 * resolve scenarios, run the arms, print the report and write any
 * requested CSV/stat-table dump. Returns the process exit code.
 */
int runHarness(int argc, char **argv, const HarnessSpec &spec);

/**
 * Run @p scenarios over @p benchmarks, the one arm path of every
 * matrix driver: applies --seed to every arm and --workload in place
 * of @p benchmarks, resolves names through the workload registry, then
 * runs in-process or, with --connect, on the daemon (byte-identical
 * rows either way).
 */
HarnessResult runArms(const DriverContext &ctx,
                      std::vector<sim::Scenario> scenarios,
                      std::vector<std::string> benchmarks);

/**
 * Collect @p r's stat rows once, print them — through @p report when
 * given, else as the generic scenario-matrix table; a shard notice
 * instead when the matrix is sharded — and write the same rows to the
 * CSV/stat-table dumps requested in @p ctx. Returns the exit code (1
 * when a dump could not be written).
 */
int reportArms(const DriverContext &ctx, const HarnessResult &r,
               const Report &report = {});

/** Print the registered-scenario listing (--list-scenarios). */
void printScenarioList(std::ostream &os);

} // namespace rsep::bench

#endif // RSEP_BENCH_BENCH_UTIL_HH
