#include "bench_util.hh"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>

#include "common/env.hh"
#include "common/fault.hh"
#include "serve/client.hh"
#include "wl/trace_cache.hh"
#include "wl/workload_spec.hh"

namespace rsep::bench
{

void
applyBenchDefaults(sim::SimConfig &cfg)
{
    if (!simScaleOverridden()) {
        cfg.warmupInsts = static_cast<u64>(cfg.warmupInsts * 0.4);
        cfg.measureInsts = static_cast<u64>(cfg.measureInsts * 0.4);
    }
    if (!checkpointsOverridden())
        cfg.checkpoints = 2;
}

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
        os << "  " << info.name;
        for (const std::string &alias : info.aliases)
            os << " | " << alias;
        os << "\n      " << info.description << "\n";
    }
    os << "\nScenario files (--scenario-file) can define further arms; "
          "see DESIGN.md,\n\"Scenario files and stat export\", and "
          "examples/scenarios/.\n";
}

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
warnUnusedMatrixFlags(const char *driver, const DriverContext &ctx,
                      size_t scenarios_used)
{
    if (!ctx.csvPath.empty() || !ctx.jsonPath.empty() || ctx.statsTable ||
        ctx.timings)
        std::fprintf(stderr,
                     "%s: warning: no experiment matrix is run here; "
                     "--csv/--json/--stats/--timings are ignored\n",
                     driver);
    if (ctx.matrix.shard.active() || !ctx.matrix.cacheDir.empty() ||
        ctx.matrix.traceIo.active() || ctx.matrix.sampling.active())
        std::fprintf(stderr,
                     "%s: warning: no experiment matrix is run here; "
                     "--shard/--cache-dir/--record-trace/--replay-trace/"
                     "--sample-every are ignored\n",
                     driver);
    if (ctx.scenarios.size() > scenarios_used)
        std::fprintf(stderr,
                     "%s: warning: ignoring %zu extra scenario(s); only "
                     "the first %zu are used\n",
                     driver, ctx.scenarios.size() - scenarios_used,
                     scenarios_used);
    if (!ctx.workloads.empty())
        std::fprintf(stderr,
                     "%s: warning: this driver picks its own benchmarks; "
                     "--workload/--workload-file selections are ignored\n",
                     driver);
    if (!ctx.connectSocket.empty())
        std::fprintf(stderr,
                     "%s: warning: no experiment matrix is run here; "
                     "--connect is ignored\n",
                     driver);
}

namespace
{

void
printHelp(const HarnessSpec &spec)
{
    std::printf("usage: %s [options]%s\n", spec.name,
                spec.positionalBenchmarks ? " [benchmark ...]"
                : spec.positionalHelp    ? spec.positionalHelp
                                         : "");
    if (spec.description[0])
        std::printf("%s\n", spec.description);
    std::printf(
        "\noptions:\n"
        "  --scenario NAME[,NAME...]  run these registered scenarios\n"
        "                             (repeatable; see --list-scenarios)\n"
        "  --scenario-file PATH       load scenarios (and [workload]\n"
        "                             definitions) from a .scn file\n"
        "                             (repeatable)\n"
        "  --list-scenarios           list registered scenarios and exit\n"
        "  --workload NAME[,NAME...]  run these workloads instead of the\n"
        "                             driver's benchmark set (repeatable;\n"
        "                             see --list-workloads)\n"
        "  --workload-file PATH       load [workload] definitions from a\n"
        "                             .scn file and run them (repeatable)\n"
        "  --list-workloads           list registered workloads and exit\n"
        "  --csv PATH                 write the stat matrix as CSV\n"
        "  --json PATH                write the stat matrix as JSON\n"
        "  --stats                    print per-engine counters per cell\n"
        "  --timings                  add the host-dependent timing.*\n"
        "                             counters to the dumps (off by\n"
        "                             default so dumps stay\n"
        "                             bit-reproducible); the counter\n"
        "                             list is printed below, generated\n"
        "                             from the RunTiming schema so it\n"
        "                             cannot drift from the code\n"
        "  --seed N                   override every scenario's [sim]\n"
        "                             seed (new config hash: fresh cache\n"
        "                             cells and shard assignment)\n"
        "  --jobs N, -jN              worker threads (0 = auto: RSEP_JOBS\n"
        "                             or the hardware thread count)\n"
        "  --shard I/N                run only this process's slice of\n"
        "                             the matrix; merge the dumps with\n"
        "                             rsep_merge (stable hash partition)\n"
        "  --cache-dir PATH           persistent per-cell result cache:\n"
        "                             skip already-simulated cells and\n"
        "                             make interrupted sweeps resumable\n"
        "  --record-trace DIR         write each live-emulated cell's\n"
        "                             committed-path stream as a .rtr\n"
        "                             trace (record once, replay many)\n"
        "  --replay-trace DIR         feed the pipeline from recorded\n"
        "                             .rtr traces instead of functional\n"
        "                             emulation (byte-identical dumps)\n"
        "  --trace-cache-mb N         bound the in-process decoded-trace\n"
        "                             cache (LRU) shared by replayed\n"
        "                             cells; 0 = unlimited (default 1024)\n"
        "  --sample-every N           time-series sampling: snapshot the\n"
        "                             live counters every N cycles of\n"
        "                             each cell's measurement run into\n"
        "                             per-cell .rts/.csv series (k/M/G\n"
        "                             suffixes accepted; bypasses the\n"
        "                             result cache; inspect with\n"
        "                             rsep_samples)\n"
        "  --sample-dir PATH          sample-series output directory\n"
        "                             (default: samples)\n"
        "  --connect SOCK             run the matrix on a warm rsep_serve\n"
        "                             daemon at this Unix socket instead\n"
        "                             of in-process (byte-identical\n"
        "                             output; amortizes startup, trace\n"
        "                             decode and caches across runs).\n"
        "                             Server-side knobs (--jobs,\n"
        "                             --cache-dir, --shard,\n"
        "                             --record-trace, --trace-cache-mb)\n"
        "                             are rejected here: set them on the\n"
        "                             rsep_serve command line\n"
        "  --connect-timeout MS       keep re-trying the initial connect\n"
        "                             this long (daemon still warming\n"
        "                             up); 0 = one attempt (default)\n"
        "  --deadline MS              hard wall-clock ceiling on the\n"
        "                             whole remote request, retries\n"
        "                             included; 0 = none (default)\n"
        "  --retries N                reconnect+resubmit attempts after\n"
        "                             a transient connection failure or\n"
        "                             server-busy rejection (default 3;\n"
        "                             results stay byte-identical —\n"
        "                             Submit is idempotent)\n"
        "  --fault SPEC               arm deterministic fault injection\n"
        "                             (testing; same grammar as\n"
        "                             RSEP_FAULT — DESIGN.md §14), e.g.\n"
        "                             serve.send:after=3:fail=econnreset\n"
        "  --help, -h                 show this help\n");
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

/** Split a NAME[,NAME...] list. */
std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
usageError(const HarnessSpec &spec, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s (try --help)\n", spec.name, msg.c_str());
    return 2;
}

/**
 * Parse the common driver flags. Returns -1 to continue running, or a
 * process exit code when the invocation is complete (help/list) or
 * malformed.
 */
int
parseDriverArgs(int argc, char **argv, const HarnessSpec &spec,
                DriverContext &ctx)
{
    auto addScenarioNames = [&](const std::string &list,
                                std::string &err) {
        for (const std::string &name : splitCommas(list)) {
            auto sc = sim::findScenario(name);
            if (!sc) {
                err = "unknown scenario '" + name +
                      "' (see --list-scenarios)";
                return false;
            }
            if (spec.benchDefaults)
                applyBenchDefaults(sc->config);
            ctx.scenarios.push_back(std::move(*sc));
        }
        ctx.scenariosOverridden = true;
        return true;
    };
    auto addScenarioFile = [&](const std::string &path, std::string &err) {
        sim::ScenarioParse parsed = sim::parseScenarioFile(path);
        if (!parsed.ok()) {
            err = parsed.error;
            return false;
        }
        // [workload] definitions become part of the registry (so the
        // file's names — overridden suite benchmarks included — resolve
        // in this run), but only join the run set via --workload[-file].
        for (const wl::WorkloadSpec &w : parsed.workloads)
            wl::registerWorkload(w);
        for (auto &sc : parsed.scenarios)
            ctx.scenarios.push_back(std::move(sc));
        if (!parsed.scenarios.empty())
            ctx.scenariosOverridden = true;
        return true;
    };

    // --workload names cannot resolve until every --workload-file /
    // --scenario-file has registered its definitions, so selections are
    // collected raw (resolved == false) and resolved after the loop.
    std::vector<std::pair<std::string, bool>> workload_sel;
    // Flags that conflict with --connect but leave no trace in ctx
    // (default values / applied immediately), tracked for the combo
    // check after the loop — --connect may come later in argv.
    bool saw_trace_cache = false, saw_jobs = false;
    bool saw_connect_timeout = false, saw_deadline = false,
         saw_retries = false;
    auto addWorkloadFile = [&](const std::string &path, std::string &err) {
        sim::ScenarioParse parsed = sim::parseScenarioFile(path);
        if (!parsed.ok()) {
            err = parsed.error;
            return false;
        }
        if (parsed.workloads.empty()) {
            err = path + ": no [workload] definitions found";
            return false;
        }
        if (!parsed.scenarios.empty())
            std::fprintf(stderr,
                         "%s: warning: %s defines %zu scenario(s); "
                         "--workload-file only takes its workloads (use "
                         "--scenario-file for the arms)\n",
                         spec.name, path.c_str(),
                         parsed.scenarios.size());
        for (const wl::WorkloadSpec &w : parsed.workloads)
            workload_sel.emplace_back(wl::registerWorkload(w), true);
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        std::string err;

        // `--flag value` and `--flag=value` both work.
        auto valueOf = [&](const char *flag,
                           std::string &value) -> int {
            size_t n = std::strlen(flag);
            if (a.compare(0, n, flag) != 0)
                return 0; // not this flag.
            if (a.size() == n) {
                if (i + 1 >= argc)
                    return -1; // dangling.
                value = argv[++i];
                return 1;
            }
            if (a[n] != '=')
                return 0;
            value = a.substr(n + 1);
            return 1;
        };

        if (a == "--help" || a == "-h") {
            printHelp(spec);
            return 0;
        }
        if (a == "--list-scenarios") {
            printScenarioList(std::cout);
            return 0;
        }
        if (a == "--list-workloads") {
            // Load any later --workload-file / --scenario-file flags
            // first so the listing reflects the full overlay.
            for (int j = i + 1; j < argc; ++j) {
                std::string rest = argv[j];
                for (const char *f : {"--workload-file", "--scenario-file"}) {
                    std::string path;
                    size_t n = std::strlen(f);
                    if (rest == f && j + 1 < argc)
                        path = argv[j + 1];
                    else if (rest.compare(0, n, f) == 0 &&
                             rest.size() > n && rest[n] == '=')
                        path = rest.substr(n + 1);
                    if (!path.empty()) {
                        sim::ScenarioParse parsed =
                            sim::parseScenarioFile(path);
                        if (parsed.ok())
                            for (const wl::WorkloadSpec &w :
                                 parsed.workloads)
                                wl::registerWorkload(w);
                    }
                }
            }
            printWorkloadList(std::cout);
            return 0;
        }
        if (a == "--stats") {
            ctx.statsTable = true;
            continue;
        }
        if (a == "--timings") {
            ctx.timings = true;
            continue;
        }
        std::string value;
        int hit;
        if ((hit = valueOf("--shard", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--shard requires INDEX/COUNT "
                                        "(e.g. 0/4)");
            if (!sim::parseShardValue(value, ctx.matrix.shard, err))
                return usageError(spec, err);
            continue;
        }
        if ((hit = valueOf("--cache-dir", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--cache-dir requires a path");
            if (value.empty())
                return usageError(spec, "--cache-dir path is empty");
            ctx.matrix.cacheDir = value;
            continue;
        }
        if ((hit = valueOf("--scenario-file", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--scenario-file requires a path");
            if (!addScenarioFile(value, err))
                return usageError(spec, err);
            continue;
        }
        if ((hit = valueOf("--scenario", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--scenario requires a name");
            if (!addScenarioNames(value, err))
                return usageError(spec, err);
            continue;
        }
        if ((hit = valueOf("--workload-file", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--workload-file requires a path");
            if (!addWorkloadFile(value, err))
                return usageError(spec, err);
            continue;
        }
        if ((hit = valueOf("--workload", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--workload requires a name");
            for (const std::string &name : splitCommas(value))
                workload_sel.emplace_back(name, false);
            continue;
        }
        if ((hit = valueOf("--record-trace", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--record-trace requires a path");
            if (value.empty())
                return usageError(spec, "--record-trace path is empty");
            ctx.matrix.traceIo.recordDir = value;
            continue;
        }
        if ((hit = valueOf("--replay-trace", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--replay-trace requires a path");
            if (value.empty())
                return usageError(spec, "--replay-trace path is empty");
            ctx.matrix.traceIo.replayDir = value;
            continue;
        }
        if ((hit = valueOf("--trace-cache-mb", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--trace-cache-mb requires a "
                                        "value (MB; 0 = unlimited)");
            u64 mb = 0;
            if (!parseU64(value, mb) || mb > (1ull << 40))
                return usageError(spec, "invalid --trace-cache-mb '" +
                                            value + "'");
            // Applied immediately: the cache is a process-wide
            // singleton, not a per-matrix object.
            wl::traceCache().setCapacityBytes(mb << 20);
            saw_trace_cache = true;
            continue;
        }
        if ((hit = valueOf("--sample-every", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--sample-every requires a cycle "
                                        "count (k/M/G suffixes allowed)");
            u64 every = 0;
            if (!parseScaledU64(value, every) || every == 0)
                return usageError(spec, "invalid --sample-every '" +
                                            value +
                                            "' (expected a positive "
                                            "cycle count, e.g. 5000 or "
                                            "10k)");
            ctx.matrix.sampling.every = every;
            continue;
        }
        if ((hit = valueOf("--sample-dir", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--sample-dir requires a path");
            if (value.empty())
                return usageError(spec, "--sample-dir path is empty");
            ctx.matrix.sampling.dir = value;
            continue;
        }
        if ((hit = valueOf("--seed", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--seed requires a value");
            u64 seed = 0;
            if (!parseU64(value, seed))
                return usageError(spec, "invalid seed '" + value +
                                            "' (expected an unsigned "
                                            "integer)");
            ctx.seedOverridden = true;
            ctx.seedValue = seed;
            continue;
        }
        if ((hit = valueOf("--csv", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--csv requires a path");
            ctx.csvPath = value;
            continue;
        }
        if ((hit = valueOf("--json", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--json requires a path");
            ctx.jsonPath = value;
            continue;
        }
        if (sim::matchJobsArg(argc, argv, i, ctx.matrix.jobs, err)) {
            if (!err.empty())
                return usageError(spec, err);
            saw_jobs = true;
            continue;
        }
        if ((hit = valueOf("--connect-timeout", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--connect-timeout requires a "
                                        "duration in ms");
            if (!parseU64(value, ctx.connectTimeoutMs))
                return usageError(spec, "bad --connect-timeout '" +
                                            value + "'");
            saw_connect_timeout = true;
            continue;
        }
        if ((hit = valueOf("--connect", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--connect requires a socket "
                                        "path");
            if (value.empty())
                return usageError(spec, "--connect socket path is empty");
            ctx.connectSocket = value;
            continue;
        }
        if ((hit = valueOf("--deadline", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--deadline requires a duration "
                                        "in ms");
            if (!parseU64(value, ctx.deadlineMs))
                return usageError(spec, "bad --deadline '" + value + "'");
            saw_deadline = true;
            continue;
        }
        if ((hit = valueOf("--retries", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--retries requires a count");
            u64 n = 0;
            if (!parseU64(value, n) || n > 100)
                return usageError(spec, "bad --retries '" + value +
                                            "' (0-100)");
            ctx.retries = static_cast<unsigned>(n);
            saw_retries = true;
            continue;
        }
        if ((hit = valueOf("--fault", value)) != 0) {
            if (hit < 0)
                return usageError(spec, "--fault requires an injection "
                                        "spec (see DESIGN.md §14)");
            if (!fault::armFromSpec(value, &err))
                return usageError(spec, err);
            continue;
        }
        if (!a.empty() && a[0] == '-')
            return usageError(spec, "unknown option '" + a + "'");
        ctx.positional.push_back(a);
    }

    // --connect hands execution to the daemon; flags steering resources
    // the server owns are errors, not silent no-ops (the run would
    // otherwise look tuned while the server ignored the knob).
    if (!ctx.connectSocket.empty()) {
        const char *clash = nullptr;
        if (saw_jobs)
            clash = "--jobs";
        else if (saw_trace_cache)
            clash = "--trace-cache-mb";
        else if (ctx.matrix.shard.active())
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
    } else {
        // The remote-recovery knobs steer the client conversation; on a
        // local run they would be silent no-ops.
        const char *orphan = saw_connect_timeout ? "--connect-timeout"
                             : saw_deadline      ? "--deadline"
                             : saw_retries       ? "--retries"
                                                 : nullptr;
        if (orphan)
            return usageError(spec, std::string(orphan) +
                                        " only applies with --connect");
    }

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

    // --seed overrides every scenario parsed so far; default-scenario
    // runs apply it when the configs are built (runHarness).
    if (ctx.seedOverridden)
        for (sim::Scenario &sc : ctx.scenarios)
            sc.config.seed = ctx.seedValue;

    if (!ctx.positional.empty() && !spec.positionalBenchmarks &&
        !spec.custom)
        return usageError(spec, "unexpected argument '" +
                                    ctx.positional.front() + "'");
    return -1;
}

std::vector<std::string>
benchmarksFor(const HarnessSpec &spec, const DriverContext &ctx)
{
    // --workload/--workload-file selections are already run-cell keys.
    if (!ctx.workloads.empty())
        return ctx.workloads;
    std::vector<std::string> names;
    if (spec.positionalBenchmarks && !ctx.positional.empty())
        names = ctx.positional;
    else if (!spec.benchmarks.empty())
        names = spec.benchmarks;
    else
        names = wl::suiteNames();
    // Translate names to run-cell keys so runtime [workload] overrides
    // apply (a pristine suite name maps to itself, keeping flag-less
    // dumps and cache/shard identities untouched). Unknown names pass
    // through to the runner's own diagnostics.
    for (std::string &n : names)
        if (auto key = wl::resolveWorkloadKey(n))
            n = *key;
    return names;
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
                 "Export every shard with --csv/--json and combine with "
                 "rsep_merge\nto recover the full table and figure "
                 "summaries.\n";
    if (ctx.csvPath.empty() && ctx.jsonPath.empty())
        std::cout << "(warning: no --csv/--json requested; this shard's "
                     "results are not\nexported anywhere)\n";
}

/**
 * Run a scenario matrix in-process or, with --connect, on the daemon.
 * The remote path is a drop-in: runMatrixRemote reconstructs the same
 * rows runMatrix would produce (and verifies its reconstruction
 * against the server's canonical dump), so the report/export code
 * below never knows where the cells ran.
 */
std::vector<sim::MatrixRow>
runDriverMatrix(const DriverContext &ctx,
                const std::vector<sim::Scenario> &scenarios,
                const std::vector<std::string> &benchmarks)
{
    if (ctx.connectSocket.empty()) {
        std::vector<sim::SimConfig> configs;
        configs.reserve(scenarios.size());
        for (const sim::Scenario &sc : scenarios)
            configs.push_back(sc.config);
        return sim::runMatrix(configs, benchmarks, ctx.matrix);
    }
    serve::ClientOptions copts;
    copts.socketPath = ctx.connectSocket;
    copts.sampleEvery = ctx.matrix.sampling.every;
    copts.sampleDir = ctx.matrix.sampling.dir;
    copts.replayDir = ctx.matrix.traceIo.replayDir;
    copts.progress = ctx.matrix.progress;
    copts.connectTimeoutMs = ctx.connectTimeoutMs;
    copts.deadlineMs = ctx.deadlineMs;
    copts.maxRetries = ctx.retries;
    return serve::runMatrixRemote(scenarios, benchmarks, copts);
}

} // namespace

bool
exportStats(const DriverContext &ctx,
            const std::vector<sim::SimConfig> &configs,
            const std::vector<sim::MatrixRow> &rows)
{
    if (ctx.csvPath.empty() && ctx.jsonPath.empty() && !ctx.statsTable)
        return true;
    std::vector<sim::StatRow> stat_rows =
        sim::collectStatRows(configs, rows, ctx.timings);
    bool ok = true;
    std::string err;
    if (!ctx.csvPath.empty()) {
        if (sim::writeStatsFile(ctx.csvPath, sim::CsvStatSink{},
                                stat_rows, &err))
            std::fprintf(stderr, "[export] wrote %s\n",
                         ctx.csvPath.c_str());
        else
            ok = (std::fprintf(stderr, "[export] %s\n", err.c_str()),
                  false);
    }
    if (!ctx.jsonPath.empty()) {
        if (sim::writeStatsFile(ctx.jsonPath, sim::JsonStatSink{},
                                stat_rows, &err))
            std::fprintf(stderr, "[export] wrote %s\n",
                         ctx.jsonPath.c_str());
        else
            ok = (std::fprintf(stderr, "[export] %s\n", err.c_str()),
                  false);
    }
    if (ctx.statsTable) {
        std::cout << "\n=== per-engine counters by (benchmark, scenario, "
                     "config hash) ===\n";
        sim::TableStatSink{}.write(std::cout, stat_rows);
    }
    return ok;
}

int
runScenarioMatrix(const HarnessSpec &spec, const DriverContext &ctx,
                  const std::vector<sim::Scenario> &scenarios)
{
    if (scenarios.empty())
        return usageError(spec, "no scenarios to run");

    std::vector<sim::SimConfig> configs;
    configs.reserve(scenarios.size());
    for (const sim::Scenario &sc : scenarios)
        configs.push_back(sc.config);

    auto rows = runDriverMatrix(ctx, scenarios, benchmarksFor(spec, ctx));

    std::cout << "=== scenario matrix: " << configs.size()
              << " scenario(s) ===\n";
    for (size_t c = 0; c < configs.size(); ++c)
        std::cout << "  " << scenarios[c].name << "  (config hash "
                  << sim::configHash(configs[c]) << ")\n";
    if (ctx.matrix.shard.active()) {
        printShardNotice(ctx);
    } else if (configs.size() > 1) {
        std::cout << "\nspeedup over '" << scenarios[0].name << "':\n";
        sim::printSpeedupTable(std::cout, rows, configs);
    } else {
        std::cout << "\nbenchmark IPC (hmean over checkpoints):\n";
        for (const auto &row : rows)
            std::printf("%-12s %8.3f\n", row.benchmark.c_str(),
                        row.byConfig[0].ipcHmean());
    }
    return exportStats(ctx, configs, rows) ? 0 : 1;
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

    if (spec.custom)
        return spec.custom(ctx);

    if (ctx.scenariosOverridden)
        return runScenarioMatrix(spec, ctx, ctx.scenarios);

    HarnessResult result;
    std::vector<sim::Scenario> default_scenarios;
    for (const std::string &name : spec.defaultScenarios) {
        auto sc = sim::findScenario(name);
        if (!sc)
            return usageError(spec, "internal: unregistered default "
                                    "scenario '" +
                                        name + "'");
        if (spec.benchDefaults)
            applyBenchDefaults(sc->config);
        if (ctx.seedOverridden)
            sc->config.seed = ctx.seedValue;
        result.configs.push_back(sc->config);
        default_scenarios.push_back(std::move(*sc));
    }

    result.rows =
        runDriverMatrix(ctx, default_scenarios, benchmarksFor(spec, ctx));
    if (ctx.matrix.shard.active())
        printShardNotice(ctx); // bespoke reports need the full matrix.
    else if (spec.report)
        spec.report(result);
    else if (result.configs.size() > 1)
        sim::printSpeedupTable(std::cout, result.rows, result.configs);
    return exportStats(ctx, result.configs, result.rows) ? 0 : 1;
}

} // namespace rsep::bench
