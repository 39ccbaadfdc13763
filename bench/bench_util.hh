/**
 * @file
 * Shared driver harness for the bench and example binaries: every
 * driver declares a HarnessSpec (its default scenarios, benchmarks and
 * bespoke report) and delegates flag handling, scenario resolution,
 * the matrix run and stat export to runHarness. All drivers accept the
 * same flags: --scenario, --scenario-file, --list-scenarios,
 * --workload, --workload-file, --list-workloads, --csv, --json,
 * --stats, --timings, --seed, --jobs, --shard, --cache-dir,
 * --record-trace, --replay-trace, --sample-every, --sample-dir and
 * --help.
 */

#ifndef RSEP_BENCH_BENCH_UTIL_HH
#define RSEP_BENCH_BENCH_UTIL_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"
#include "wl/suite.hh"

namespace rsep::bench
{

/**
 * Apply the bench-default run size: harnesses default to a smaller
 * window (2 checkpoints, 0.4x instructions) than the library default
 * so the full figure suite completes in minutes on one core. Both are
 * overridable through the environment. Registry-sourced scenarios get
 * this sizing; scenario files control their own `[sim]` section and
 * are left untouched.
 */
void applyBenchDefaults(sim::SimConfig &cfg);

/** The benchmarks the paper highlights for RSEP (Section VI-B). */
std::vector<std::string> highlightBenchmarks();

/** Everything runHarness parsed off the command line. */
struct DriverContext
{
    sim::MatrixOptions matrix; ///< jobs, --shard, --cache-dir,
                               ///< --record-trace/--replay-trace.
    /** From --scenario / --scenario-file, in flag order. */
    std::vector<sim::Scenario> scenarios;
    bool scenariosOverridden = false;
    /** Run-cell keys from --workload / --workload-file, in flag order
     *  (already resolved through the workload registry); non-empty
     *  overrides the driver's benchmark set. */
    std::vector<std::string> workloads;
    std::string csvPath;
    std::string jsonPath;
    bool statsTable = false;
    /** --timings: add the host-dependent wall-clock and cache counters
     *  (timing.<name>) to the dumps (off by default so dumps stay
     *  bit-reproducible). */
    bool timings = false;
    /** --seed N: override every run scenario's [sim] seed (changes the
     *  config hash, hence shard assignment and cache identity). */
    bool seedOverridden = false;
    u64 seedValue = 0;
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

/** The matrix a harness run produced, for bespoke reports. */
struct HarnessResult
{
    std::vector<sim::SimConfig> configs;
    std::vector<sim::MatrixRow> rows;
};

/** Static description of one driver binary. */
struct HarnessSpec
{
    const char *name = "driver";
    const char *description = "";
    /** Registered scenario names run by a flag-less invocation. */
    std::vector<std::string> defaultScenarios;
    /** Default benchmark set; empty = the full 29-bench suite. */
    std::vector<std::string> benchmarks;
    /** Apply applyBenchDefaults to registry-sourced scenarios. */
    bool benchDefaults = true;
    /** Positional arguments name benchmarks to run. */
    bool positionalBenchmarks = false;
    const char *positionalHelp = nullptr;
    /** Bespoke tables for the default arm set (kept byte-identical to
     *  the pre-harness drivers); scenario overrides use the generic
     *  speedup table instead. */
    std::function<void(const HarnessResult &)> report;
    /** Full-control drivers (sweeps, single-run dumps): invoked with
     *  the parsed context instead of the standard matrix flow. */
    std::function<int(const DriverContext &)> custom;
};

/**
 * Run a driver: parse flags (--help and --list-scenarios exit here),
 * resolve scenarios, fan out the matrix, print the report and write
 * any requested CSV/JSON/stat-table dump. Returns the process exit
 * code.
 */
int runHarness(int argc, char **argv, const HarnessSpec &spec);

/** Run an explicit scenario list through the generic matrix + report
 *  + export path (what scenario overrides and sweep drivers use). */
int runScenarioMatrix(const HarnessSpec &spec, const DriverContext &ctx,
                      const std::vector<sim::Scenario> &scenarios);

/** Write the CSV/JSON/table dumps requested in @p ctx. False on I/O
 *  failure (already reported to stderr). */
bool exportStats(const DriverContext &ctx,
                 const std::vector<sim::SimConfig> &configs,
                 const std::vector<sim::MatrixRow> &rows);

/** Print the registered-scenario listing (--list-scenarios). */
void printScenarioList(std::ostream &os);

/** Print the workload-registry listing (--list-workloads). */
void printWorkloadList(std::ostream &os);

/**
 * For custom drivers that run no experiment matrix: warn on stderr
 * about parsed flags the run cannot honour — a silently dropped --csv
 * would otherwise look like a successful export. @p scenarios_used is
 * how many of ctx.scenarios the driver consumed.
 */
void warnUnusedMatrixFlags(const char *driver, const DriverContext &ctx,
                           size_t scenarios_used);

} // namespace rsep::bench

#endif // RSEP_BENCH_BENCH_UTIL_HH
