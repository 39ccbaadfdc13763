#include "bench_util.hh"

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/env.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "serve/client.hh"
#include "wl/trace_cache.hh"
#include "wl/workload_spec.hh"

namespace rsep::bench
{

std::vector<std::string>
highlightBenchmarks()
{
    return {"mcf", "dealII", "hmmer", "libquantum", "omnetpp",
            "xalancbmk"};
}

void
printScenarioList(std::ostream &os)
{
    os << "registered scenarios:\n";
    for (const sim::ScenarioInfo &info : sim::registeredScenarios()) {
        os << "  " << info.name << "\n      " << info.description << "\n";
    }
    os << "\nScenario files (--scenario-file) can define further arms; "
          "see DESIGN.md,\n\"Scenario files and stat export\", and "
          "examples/scenarios/.\n";
}

namespace
{

void
printWorkloadList(std::ostream &os)
{
    os << "registered workloads (* = defined/overridden at runtime):\n";
    char line[128];
    for (const wl::WorkloadInfo &info : wl::listWorkloads()) {
        std::snprintf(line, sizeof(line), "  %c %-34s %-14s %s\n",
                      info.fromOverlay ? '*' : ' ', info.key.c_str(),
                      info.archetype.c_str(), info.hash.c_str());
        os << line;
    }
    os << "\nWorkload files (--workload-file) and [workload] sections in "
          "scenario files\ncan define further kernels; see DESIGN.md, "
          "\"First-class workloads\".\n";
}

void
printHelp(const HarnessSpec &spec, const std::vector<cli::Option> &options)
{
    std::printf("usage: %s [options]%s\n", spec.name,
                spec.positionalBenchmarks ? " [benchmark ...]"
                : spec.positionalHelp    ? spec.positionalHelp
                                         : "");
    if (spec.description[0])
        std::printf("%s\n", spec.description);
    std::printf("\noptions:\n");
    cli::printOptions(std::cout, options);
    if (!spec.runsMatrix)
        return;
    // The timing.* counter list is generated from the one visitStats
    // enumeration the export layer itself walks — it cannot go stale.
    std::printf("\n--timings counters (per run):\n");
    sim::RunTiming timing;
    visitStats(timing, [](const char *name, StatCounter &) {
        std::printf("  %s\n", name);
    });
    std::printf("  timing.phaseN_wall_micros   (one per checkpoint N)\n");
    if (!spec.defaultScenarios.empty()) {
        std::printf("\ndefault scenarios:");
        for (const std::string &s : spec.defaultScenarios)
            std::printf(" %s", s.c_str());
        std::printf("\n");
    }
    if (spec.positionalBenchmarks)
        std::printf("\npositional arguments name benchmarks (default:%s"
                    " the paper suite)\n",
                    spec.benchmarks.empty() ? "" : " a subset of");
    std::printf("\nStat dumps are keyed by (benchmark, scenario, config "
                "hash).\nEnvironment: RSEP_SIM_SCALE, RSEP_CHECKPOINTS, "
                "RSEP_JOBS.\n");
}

int
usageError(const HarnessSpec &spec, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s (try --help)\n", spec.name, msg.c_str());
    return 2;
}

/**
 * Parse the driver flags. Returns -1 to continue running, or a process
 * exit code when the invocation is complete (help/listings) or
 * malformed.
 */
int
parseDriverArgs(int argc, char **argv, const HarnessSpec &spec,
                DriverContext &ctx)
{
    // --workload names cannot resolve until every --workload-file /
    // --scenario-file has registered its definitions, so selections are
    // collected raw (resolved == false) and resolved after parsing.
    std::vector<std::pair<std::string, bool>> workload_sel;
    bool list_scenarios = false, list_workloads = false;
    // Flags that conflict with --connect but leave no trace in ctx
    // (default values / applied immediately), checked after parsing —
    // --connect may come later in argv.
    const char *server_knob = nullptr;  // --jobs / --trace-cache-mb.
    const char *client_knob = nullptr;  // --connect-timeout etc.
    bool sample_dir_given = false;

    // [workload] definitions become part of the registry (so the
    // file's names — overridden suite benchmarks included — resolve in
    // this run), but only join the run set via --workload[-file].
    auto loadFile = [](const std::string &path, sim::ScenarioParse &out,
                       std::vector<std::string> &keys) {
        out = sim::parseScenarioFile(path);
        for (const wl::WorkloadSpec &w : out.workloads)
            keys.push_back(wl::registerWorkload(w));
        return out.error;
    };

    std::vector<cli::Option> options = {
        {"scenario", "NAME[,NAME...]",
         "run these registered scenarios (repeatable; see "
         "--list-scenarios)",
         [&](const std::string &v) -> std::string {
             std::vector<std::string> names = cli::splitList(v);
             if (names.empty())
                 return "no scenario names in '" + v + "'";
             for (const std::string &name : names) {
                 auto sc = sim::findScenario(name);
                 if (!sc)
                     return "unknown scenario '" + name +
                            "' (see --list-scenarios)";
                 ctx.scenarios.push_back(std::move(*sc));
             }
             return {};
         }},
        {"scenario-file", "PATH",
         "load scenarios (and [workload] definitions) from a .scn file "
         "(repeatable)",
         [&](const std::string &v) {
             sim::ScenarioParse parsed;
             std::vector<std::string> keys;
             std::string err = loadFile(v, parsed, keys);
             for (sim::Scenario &sc : parsed.scenarios)
                 ctx.scenarios.push_back(std::move(sc));
             return err;
         }},
        {"list-scenarios", nullptr, "list registered scenarios and exit",
         cli::store(list_scenarios)},
    };
    if (spec.runsMatrix) {
        std::vector<cli::Option> matrix = {
            {"workload", "NAME[,NAME...]",
             "run these workloads instead of the driver's benchmark set "
             "(repeatable; see --list-workloads)",
             [&](const std::string &v) -> std::string {
                 std::vector<std::string> names = cli::splitList(v);
                 if (names.empty())
                     return "no workload names in '" + v + "'";
                 for (const std::string &name : names)
                     workload_sel.emplace_back(name, false);
                 return {};
             }},
            {"workload-file", "PATH",
             "load [workload] definitions from a .scn file and run them "
             "(repeatable)",
             [&](const std::string &v) -> std::string {
                 sim::ScenarioParse parsed;
                 std::vector<std::string> keys;
                 std::string err = loadFile(v, parsed, keys);
                 if (!err.empty())
                     return err;
                 if (parsed.workloads.empty())
                     return v + ": no [workload] definitions found";
                 if (!parsed.scenarios.empty())
                     std::fprintf(stderr,
                                  "%s: warning: %s defines %zu "
                                  "scenario(s); --workload-file only "
                                  "takes its workloads (use "
                                  "--scenario-file for the arms)\n",
                                  spec.name, v.c_str(),
                                  parsed.scenarios.size());
                 for (const std::string &key : keys)
                     workload_sel.emplace_back(key, true);
                 return {};
             }},
            {"list-workloads", nullptr,
             "list registered workloads (with every file flag's "
             "definitions) and exit",
             cli::store(list_workloads)},
            {"csv", "PATH", "write the stat matrix as CSV",
             cli::store(ctx.csvPath)},
            {"stats", nullptr, "print per-engine counters per cell",
             cli::store(ctx.statsTable)},
            {"timings", nullptr,
             "add the host-dependent timing.* counters (listed below) to "
             "the dumps; off by default so dumps stay bit-reproducible",
             cli::store(ctx.timings)},
            {"seed", "N",
             "override every scenario's [sim] seed (new config hash: "
             "fresh cache cells and shard assignment)",
             [&](const std::string &v) {
                 u64 seed = 0;
                 std::string err = cli::parseCount(v, seed);
                 ctx.seed = seed;
                 return err;
             }},
            {"jobs", "N",
             "worker threads (0 = auto: RSEP_JOBS or the hardware thread "
             "count)",
             [&](const std::string &v) {
                 std::string err;
                 sim::parseJobsValue(v, ctx.matrix.jobs, err);
                 server_knob = "--jobs";
                 return err;
             },
             'j'},
            {"shard", "I/N",
             "run only this process's slice of the matrix; merge the "
             "dumps with rsep_merge (stable hash partition)",
             [&](const std::string &v) {
                 std::string err;
                 sim::parseShardValue(v, ctx.matrix.shard, err);
                 return err;
             }},
            {"cache-dir", "PATH",
             "persistent per-cell result cache: skip already-simulated "
             "cells and make interrupted sweeps resumable",
             cli::store(ctx.matrix.cacheDir)},
            {"record-trace", "DIR",
             "write each live-emulated cell's committed-path stream as a "
             ".rtr trace (record once, replay many)",
             cli::store(ctx.matrix.traceIo.recordDir)},
            {"replay-trace", "DIR",
             "feed the pipeline from recorded .rtr traces instead of "
             "functional emulation (byte-identical dumps)",
             cli::store(ctx.matrix.traceIo.replayDir)},
            {"trace-cache-mb", "N",
             "bound the in-process decoded-trace cache (LRU) shared by "
             "replayed cells; 0 = unlimited (default 1024)",
             [&](const std::string &v) {
                 u64 mb = 0;
                 std::string err = cli::parseCount(v, mb, 0, 1ull << 40);
                 // Applied immediately: the cache is a process-wide
                 // singleton, not a per-matrix object.
                 wl::traceCache().setCapacityBytes(mb << 20);
                 server_knob = "--trace-cache-mb";
                 return err;
             }},
            {"sample-every", "N",
             "time-series sampling: snapshot the live counters every N "
             "cycles of each cell's measurement run into per-cell .rts "
             "series (k/M/G suffixes accepted; bypasses the result "
             "cache; inspect with rsep_samples)",
             [&](const std::string &v) -> std::string {
                 u64 every = 0;
                 if (!parseScaledU64(v, every) || every == 0)
                     return "invalid cycle count '" + v +
                            "' (expected a positive count, e.g. 5000 "
                            "or 10k)";
                 ctx.matrix.sampling.every = every;
                 return {};
             }},
            {"sample-dir", "PATH",
             "sample-series output directory (default: samples; needs "
             "--sample-every)",
             [&](const std::string &v) {
                 ctx.matrix.sampling.dir = v;
                 sample_dir_given = true;
                 return std::string();
             }},
            {"connect", "SOCK",
             "run the matrix on a warm rsep_serve daemon at this Unix "
             "socket instead of in-process (byte-identical output). "
             "Server-side knobs (--jobs, --cache-dir, --shard, "
             "--record-trace, --trace-cache-mb) are rejected here: set "
             "them on the rsep_serve command line",
             cli::store(ctx.connectSocket)},
            {"connect-timeout", "MS",
             "keep re-trying the initial connect this long (daemon still "
             "warming up); 0 = one attempt (default)",
             [&](const std::string &v) {
                 client_knob = "--connect-timeout";
                 return cli::parseCount(v, ctx.connectTimeoutMs);
             }},
            {"deadline", "MS",
             "hard wall-clock ceiling on the whole remote request, "
             "retries included; 0 = none (default)",
             [&](const std::string &v) {
                 client_knob = "--deadline";
                 return cli::parseCount(v, ctx.deadlineMs);
             }},
            {"retries", "N",
             "reconnect+resubmit attempts after a transient connection "
             "failure or server-busy rejection (default 3; results stay "
             "byte-identical: Submit is idempotent)",
             [&](const std::string &v) {
                 u64 n = 0;
                 std::string err = cli::parseCount(v, n, 0, 100);
                 ctx.retries = static_cast<unsigned>(n);
                 client_knob = "--retries";
                 return err;
             }},
            {"fault", "SPEC",
             "arm deterministic fault injection (testing; same grammar "
             "as RSEP_FAULT, DESIGN.md §14), e.g. "
             "serve.send:after=3:fail=econnreset",
             [&](const std::string &v) {
                 std::string err;
                 fault::armFromSpec(v, &err);
                 return err;
             }},
        };
        options.insert(options.end(), matrix.begin(), matrix.end());
    }

    cli::Parsed parsed = cli::parse(argc, argv, options);
    if (!parsed.ok())
        return usageError(spec, parsed.error);
    if (parsed.help) {
        printHelp(spec, options);
        return 0;
    }
    // Listings answer after every file flag has loaded, so they
    // reflect the full overlay.
    if (list_scenarios) {
        printScenarioList(std::cout);
        return 0;
    }
    if (list_workloads) {
        printWorkloadList(std::cout);
        return 0;
    }
    ctx.positional = std::move(parsed.positional);
    if (!ctx.positional.empty() && !spec.positionalBenchmarks &&
        !spec.positionalHelp)
        return usageError(spec, "unexpected argument '" +
                                    ctx.positional.front() + "'");
    // Rows and tables are keyed by arm label.
    for (size_t i = 0; i < ctx.scenarios.size(); ++i)
        for (size_t j = 0; j < i; ++j)
            if (ctx.scenarios[j].config.label ==
                ctx.scenarios[i].config.label)
                return usageError(spec, "arm label '" +
                                            ctx.scenarios[i].config.label +
                                            "' is given twice; every arm "
                                            "needs its own label");

    // --connect hands execution to the daemon; flags steering resources
    // the server owns are errors, not silent no-ops (the run would
    // otherwise look tuned while the server ignored the knob).
    if (!ctx.connectSocket.empty()) {
        const char *clash = server_knob;
        if (ctx.matrix.shard.active())
            clash = "--shard";
        else if (!ctx.matrix.cacheDir.empty())
            clash = "--cache-dir";
        else if (!ctx.matrix.traceIo.recordDir.empty())
            clash = "--record-trace";
        if (clash)
            return usageError(spec,
                              std::string(clash) +
                                  " is not supported with --connect: "
                                  "the server owns that resource (set "
                                  "it on the rsep_serve command line)");
    } else if (client_knob) {
        // The remote-recovery knobs steer the client conversation; on a
        // local run they would be silent no-ops.
        return usageError(spec, std::string(client_knob) +
                                    " only applies with --connect");
    }

    // Without --sample-every nothing is sampled, so --sample-dir would
    // be a silent no-op.
    if (sample_dir_given && ctx.matrix.sampling.every == 0)
        return usageError(spec, "--sample-dir only applies with "
                                "--sample-every");

    // Resolve --workload names now that every file is loaded.
    for (const auto &[name, resolved] : workload_sel) {
        if (resolved) {
            ctx.workloads.push_back(name);
            continue;
        }
        auto key = wl::resolveWorkloadKey(name);
        if (!key)
            return usageError(spec, "unknown workload '" + name +
                                        "' (see --list-workloads)");
        ctx.workloads.push_back(*key);
    }
    // Rows and the merge key are by workload too: a repeat would run
    // twice, count twice in every gmean and write duplicate rows.
    for (size_t i = 0; i < ctx.workloads.size(); ++i)
        for (size_t j = 0; j < i; ++j)
            if (ctx.workloads[j] == ctx.workloads[i])
                return usageError(spec, "workload '" + ctx.workloads[i] +
                                            "' is given twice; every "
                                            "row needs its own workload");
    return -1;
}

/**
 * A sharded run holds only its slice of the matrix, so the per-driver
 * tables (which expect every row) are suppressed in favour of a
 * pointer at the merge step.
 */
void
printShardNotice(const DriverContext &ctx)
{
    std::cout << "\nshard " << ctx.matrix.shard.index << "/"
              << ctx.matrix.shard.count
              << ": partial matrix; tables are suppressed.\n"
                 "Export every shard with --csv and combine with "
                 "rsep_merge\nto recover the full table and figure "
                 "summaries.\n";
    if (ctx.csvPath.empty())
        std::cout << "(warning: no --csv requested; this shard's "
                     "results are not\nexported anywhere)\n";
}

/** Write @p stat_rows to the CSV/table dumps requested in @p ctx.
 *  False on I/O failure (already reported to stderr). */
bool
exportStats(const DriverContext &ctx,
            const std::vector<sim::StatRow> &stat_rows)
{
    bool ok = true;
    if (!ctx.csvPath.empty()) {
        std::string err;
        ok = sim::writeStatsFile(ctx.csvPath, stat_rows, &err);
        std::fprintf(stderr, "[export] %s\n",
                     ok ? ("wrote " + ctx.csvPath).c_str() : err.c_str());
    }
    if (ctx.statsTable) {
        std::cout << "\n=== per-engine counters by (benchmark, scenario, "
                     "config hash) ===\n";
        sim::TableStatSink{}.write(std::cout, stat_rows);
    }
    return ok;
}

/** The driver's own benchmark set: positional names, its default list
 *  or the whole suite (runArms applies --workload on top). */
std::vector<std::string>
benchmarksFor(const HarnessSpec &spec, const DriverContext &ctx)
{
    if (spec.positionalBenchmarks && !ctx.positional.empty())
        return ctx.positional;
    if (!spec.benchmarks.empty())
        return spec.benchmarks;
    return wl::suiteNames();
}

} // namespace

const sim::StatRow &
ReportInput::row(const std::string &benchmark, size_t arm) const
{
    const sim::StatRow *r =
        sim::findStatRow(rows, benchmark, configs.at(arm).label);
    if (!r)
        rsep_panic("no stat row for (%s, %s)", benchmark.c_str(),
                   configs[arm].label.c_str());
    return *r;
}

void
ReportInput::printSpeedups(std::ostream &os,
                           std::vector<std::string> arms) const
{
    if (arms.empty())
        for (const sim::SimConfig &cfg : configs)
            arms.push_back(cfg.label);
    sim::SpeedupGrid grid;
    std::string err;
    if (!sim::speedupGrid(rows, arms, benchmarks, grid, &err))
        rsep_panic("speedup table: %s", err.c_str());
    sim::writeSpeedupTable(os, grid);
}

HarnessResult
runArms(const DriverContext &ctx, std::vector<sim::Scenario> scenarios,
        std::vector<std::string> benchmarks)
{
    if (ctx.seed)
        for (sim::Scenario &sc : scenarios)
            sc.config.seed = *ctx.seed;
    // --workload/--workload-file selections are already run-cell keys.
    // Other names translate to keys so runtime [workload] overrides
    // apply (a pristine suite name maps to itself, keeping flag-less
    // dumps and cache/shard identities untouched); unknown names pass
    // through to the runner's own diagnostics.
    if (!ctx.workloads.empty())
        benchmarks = ctx.workloads;
    else
        for (std::string &n : benchmarks)
            if (auto key = wl::resolveWorkloadKey(n))
                n = *key;

    HarnessResult r;
    for (const sim::Scenario &sc : scenarios)
        r.configs.push_back(sc.config);
    if (ctx.connectSocket.empty()) {
        r.rows = sim::runMatrix(r.configs, benchmarks, ctx.matrix);
        return r;
    }
    // The remote path is a drop-in: runMatrixRemote reconstructs the
    // rows runMatrix would produce (and verifies its reconstruction
    // against the server's canonical dump), so reports and exports
    // never know where the cells ran.
    serve::ClientOptions copts;
    copts.socketPath = ctx.connectSocket;
    copts.sampleEvery = ctx.matrix.sampling.every;
    copts.sampleDir = ctx.matrix.sampling.dir;
    copts.replayDir = ctx.matrix.traceIo.replayDir;
    copts.progress = ctx.matrix.progress;
    copts.connectTimeoutMs = ctx.connectTimeoutMs;
    copts.deadlineMs = ctx.deadlineMs;
    copts.maxRetries = ctx.retries;
    r.rows = serve::runMatrixRemote(scenarios, benchmarks, copts);
    return r;
}

int
reportArms(const DriverContext &ctx, const HarnessResult &r,
           const Report &report)
{
    if (!report) {
        std::cout << "=== scenario matrix: " << r.configs.size()
                  << " scenario(s) ===\n";
        for (const sim::SimConfig &cfg : r.configs)
            std::cout << "  " << cfg.label << "  (config hash "
                      << sim::configHash(cfg) << ")\n";
    }
    std::vector<sim::StatRow> stat_rows =
        sim::collectStatRows(r.configs, r.rows, ctx.timings);
    std::vector<std::string> benchmarks;
    for (const sim::MatrixRow &row : r.rows)
        benchmarks.push_back(row.benchmark);
    ReportInput in{r.configs, benchmarks, stat_rows};
    if (ctx.matrix.shard.active()) {
        printShardNotice(ctx);
    } else if (report) {
        report(in);
    } else if (r.configs.size() > 1) {
        std::cout << "\nspeedup over '" << r.configs[0].label << "':\n";
        in.printSpeedups(std::cout);
    } else {
        std::cout << "\nbenchmark IPC (hmean over checkpoints):\n";
        for (const std::string &bench : benchmarks)
            std::printf("%-12s %8.3f\n", bench.c_str(),
                        in.row(bench, 0).ipcHmean);
    }
    return exportStats(ctx, stat_rows) ? 0 : 1;
}

int
runHarness(int argc, char **argv, const HarnessSpec &spec)
{
    // RSEP_FAULT arms deterministic fault injection in any driver
    // (DESIGN.md §14); unarmed points are zero-cost no-ops.
    fault::initFromEnv();

    DriverContext ctx;
    int rc = parseDriverArgs(argc, argv, spec, ctx);
    if (rc >= 0)
        return rc;

    bool overridden = !ctx.scenarios.empty();
    if (spec.custom && (!spec.runsMatrix || !overridden))
        return spec.custom(ctx);

    std::vector<sim::Scenario> scenarios = ctx.scenarios;
    if (!overridden) {
        for (const std::string &name : spec.defaultScenarios) {
            auto sc = sim::findScenario(name);
            if (!sc)
                return usageError(spec, "internal: unregistered default "
                                        "scenario '" +
                                            name + "'");
            scenarios.push_back(std::move(*sc));
        }
    }
    HarnessResult r = runArms(ctx, std::move(scenarios),
                              benchmarksFor(spec, ctx));
    return reportArms(ctx, r, overridden ? Report{} : spec.report);
}

} // namespace rsep::bench
