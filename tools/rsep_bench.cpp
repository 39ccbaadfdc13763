/**
 * @file
 * rsep_bench — reproducible simulator-throughput harness (the perf
 * counterpart of the figure drivers; DESIGN.md §9).
 *
 * Three measurements, all wall-clock on the current host:
 *
 *  1. Single-thread cycle-loop throughput per workload, in committed
 *     Minst/s, in two modes: *live* (pipeline fed by the functional
 *     emulator — what a cold sweep pays) and *replay* (pipeline fed by
 *     an in-memory recorded trace — the pure cycle loop, what a warm
 *     fleet worker pays). Grouped per kernel archetype.
 *  2. The replay-vs-live speedup implied by (1).
 *  3. runMatrix wall-clock vs thread count, for both `--steal`
 *     granularities (cell and window) — the ROADMAP scaling study.
 *
 * `--perf-json` writes the whole report as JSON (BENCH_PR5.json is a
 * checked-in run of it); `--baseline` points at a flat
 * "workload live replay" file (see --write-baseline) from an older
 * build so the report carries before/after speedups.
 *
 *     rsep_bench --perf-json BENCH.json \
 *                --baseline bench/baselines/pr4_cycle_loop.txt
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "core/pipeline.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "wl/emulator.hh"
#include "wl/suite.hh"
#include "wl/trace_cache.hh"
#include "wl/trace_io.hh"
#include "wl/workload_spec.hh"

namespace
{

using namespace rsep;
using Clock = std::chrono::steady_clock;

double
secsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct WorkloadPerf
{
    std::string workload;
    std::string archetype;
    double liveMips = 0.0;
    double replayMips = 0.0;
    double baselineReplayMips = 0.0; ///< 0 when no baseline given.
};

struct ScalingPoint
{
    const char *steal;
    unsigned jobs;
    double wallSecs;
};

/** Cost of `--sample-every` on the pure cycle loop (one replay cell,
 *  paired off/on rounds). */
struct SamplingOverhead
{
    std::string workload;
    u64 period = 0;        ///< sample period in cycles.
    double offSecs = 0.0;  ///< best sampling-off wall seconds.
    double onSecs = 0.0;   ///< best sampling-on wall seconds.
    u64 rows = 0;          ///< sample rows per measured run.
    double overheadPct() const
    {
        return offSecs > 0.0 ? (onSecs / offSecs - 1.0) * 100.0 : 0.0;
    }
    double samplesPerSec() const
    {
        return onSecs > 0.0 ? static_cast<double>(rows) / onSecs : 0.0;
    }
};

struct Options
{
    std::string perfJsonPath;
    std::string baselinePath;
    std::string writeBaselinePath;
    std::string scenario = "baseline";
    std::string workloadSet;            ///< named set (see --workload-set).
    std::vector<std::string> workloads; ///< empty = full suite.
    u64 warmup = 20000;
    u64 measure = 200000;
    u64 scalingMeasure = 8000;
    std::vector<unsigned> threads = {1, 2, 4};
    bool scaling = true;
    /** Sampling-overhead study: cycle period of the sampled run
     *  (0 skips the study; default mirrors a typical --sample-every). */
    u64 sampleEvery = 10000;

    // ---- replay-sweep mode (--sweep): the trace data-path benchmark.
    bool sweep = false;
    /** Arms of the sweep; every arm replays the SAME traces, so S arms
     *  pay one decode through the shared trace cache. */
    std::vector<std::string> sweepScenarios = {"baseline", "rsep", "vpred",
                                               "rsep+vpred"};
    std::string sweepTraceDir = "bench_sweep_traces";
    /** Replay sizing: short windows out of long recordings, the
     *  record-once-replay-many shape (replay_sweep.scn). */
    u64 sweepWarmup = 1000;
    u64 sweepMeasure = 4000;
    u32 sweepCheckpoints = 4;
    /** Record sizing: full-length traces each cell replays a window
     *  of (replay_sweep_record.scn). */
    u64 sweepRecordWarmup = 75000;
    u64 sweepRecordMeasure = 225000;
    unsigned sweepRounds = 3;
    unsigned sweepJobs = 1; ///< single worker: paired-protocol timing.
    double sweepBaselineWall = 0.0; ///< externally timed older build.
};

void
printHelp()
{
    std::printf(
        "usage: rsep_bench [options]\n"
        "Measure simulator throughput: single-thread cycle-loop Minst/s\n"
        "per workload (live emulation vs recorded-trace replay) and\n"
        "runMatrix thread scaling for both --steal granularities.\n"
        "\noptions:\n"
        "  --perf-json PATH       write the report as JSON\n"
        "  --baseline PATH        flat 'workload live replay' Minst/s\n"
        "                         file from an older build; the report\n"
        "                         then carries speedup-vs-baseline\n"
        "  --write-baseline PATH  write this run's numbers in the\n"
        "                         --baseline format\n"
        "  --scenario NAME        timing configuration (default:\n"
        "                         baseline)\n"
        "  --workload A[,B...]    subset of workloads (default: the\n"
        "                         full suite; repeatable)\n"
        "  --workload-set NAME    named subset: 'branchy' (the\n"
        "                         branch-bound predictor set), 'all',\n"
        "                         or any kernel archetype name\n"
        "  --warmup N             warmup instructions per workload\n"
        "                         (default 20000)\n"
        "  --measure N            timed instructions per workload\n"
        "                         (default 200000)\n"
        "  --threads A[,B...]     thread counts of the scaling study\n"
        "                         (default 1,2,4)\n"
        "  --scaling-measure N    timed instructions per cell in the\n"
        "                         scaling study (default 8000)\n"
        "  --no-scaling           skip the scaling study\n"
        "  --sample-every N       sampling-overhead study period in\n"
        "                         cycles (default 10000; 0 skips it):\n"
        "                         times one branchy replay cell with the\n"
        "                         stat sampler off vs on and reports the\n"
        "                         overhead ratio and samples/s\n"
        "  --sweep                run the replay-sweep benchmark instead:\n"
        "                         record full-sizing traces once, then\n"
        "                         time a multi-arm replay matrix of short\n"
        "                         windows (every cell shares one decode\n"
        "                         through the trace cache); reports wall\n"
        "                         time and the timing.trace_* counters\n"
        "                         per round\n"
        "  --sweep-scenarios A[,B...]\n"
        "                         arms of the sweep (default baseline,\n"
        "                         rsep,vpred,rsep+vpred; record/replay\n"
        "                         sizing is pinned to the checked-in\n"
        "                         examples/scenarios/replay_sweep*.scn)\n"
        "  --sweep-trace-dir DIR  where the sweep records/replays traces\n"
        "                         (default bench_sweep_traces)\n"
        "  --sweep-rounds N       timed replay rounds (default 3; round\n"
        "                         1 is decode-cold, later rounds replay\n"
        "                         fully cache-warm)\n"
        "  --sweep-baseline-wall S\n"
        "                         wall seconds of the same sweep on an\n"
        "                         older build (externally timed, paired\n"
        "                         rounds); the report then carries\n"
        "                         speedup_vs_baseline\n"
        "  --help, -h             show this help\n");
}

int
usageError(const std::string &msg)
{
    std::fprintf(stderr, "rsep_bench: %s (try --help)\n", msg.c_str());
    return 2;
}

/** Archetype per registered workload key. */
std::map<std::string, std::string>
archetypeMap()
{
    std::map<std::string, std::string> out;
    for (const wl::WorkloadInfo &info : wl::listWorkloads())
        out[info.key] = info.archetype;
    return out;
}

/**
 * Resolve a --workload-set name to suite workloads. 'branchy' is the
 * branch-bound set the predictor-hot-path PRs are gated on; 'all' is
 * the full suite; any kernel archetype name selects its suite members.
 */
bool
resolveWorkloadSet(const std::string &set,
                   const std::map<std::string, std::string> &archetypes,
                   std::vector<std::string> &out, std::string &err)
{
    if (set == "all") {
        out = wl::suiteNames();
        return true;
    }
    if (set == "branchy") {
        // High branch-event density: every TAGE/ITTAGE lookup is on
        // the critical path, so these gate predictor-path perf work.
        for (const char *name : {"gobmk", "sjeng", "astar", "perlbench"})
            out.push_back(name);
        return true;
    }
    for (const std::string &name : wl::suiteNames())
        if (auto at = archetypes.find(name);
            at != archetypes.end() && at->second == set)
            out.push_back(name);
    if (out.empty()) {
        err = "unknown workload set '" + set +
              "' (want branchy, all, or an archetype name)";
        return false;
    }
    return true;
}

/**
 * Time one workload's cycle loop: live (emulator-fed, teeing the
 * stream) and replay (fed back the recorded stream from memory, so
 * no emulation and no file I/O is on the clock).
 */
WorkloadPerf
timeWorkload(const sim::SimConfig &cfg, const std::string &name,
             u64 warmup, u64 measure)
{
    WorkloadPerf perf;
    perf.workload = name;

    wl::Workload w = wl::makeWorkload(name);
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, 0);

    wl::RecordingTraceSource rec(emu);
    {
        core::Pipeline pipe(cfg.core, cfg.mech, rec, cfg.seed ^ 0x9e37);
        pipe.run(warmup);
        pipe.resetStats();
        auto t0 = Clock::now();
        pipe.run(measure);
        auto t1 = Clock::now();
        perf.liveMips =
            static_cast<double>(pipe.stats().committedInsts.value()) /
            1e6 / secsBetween(t0, t1);
    }
    // Slack so the replay's fetch lookahead cannot exhaust the stream.
    rec.recordSlack(8192);

    wl::TraceHeader header;
    header.workload = name;
    header.programLength = w.program.size();
    wl::ReplayTraceSource src(
        wl::DecodedTrace::fromRecords(header, rec.records()), w.program,
        "<memory>");
    {
        core::Pipeline pipe(cfg.core, cfg.mech, src, cfg.seed ^ 0x9e37);
        pipe.run(warmup);
        pipe.resetStats();
        auto t0 = Clock::now();
        pipe.run(measure);
        auto t1 = Clock::now();
        perf.replayMips =
            static_cast<double>(pipe.stats().committedInsts.value()) /
            1e6 / secsBetween(t0, t1);
    }
    return perf;
}

/**
 * Time the sampling hook on one branchy replay cell: record the trace
 * once, then alternate sampling-off / sampling-on replay rounds (best
 * of 3 pairs, paired so host noise hits both arms alike). The off arm
 * exercises the detached-sampler path — one null-check per loop
 * iteration — and the on arm the full snapshot + delta row cost at the
 * given period. Acceptance (CI perf smoke): overhead under ~3%.
 */
SamplingOverhead
timeSamplingOverhead(const sim::SimConfig &cfg, const std::string &name,
                     u64 warmup, u64 measure, u64 period)
{
    SamplingOverhead so;
    so.workload = name;
    so.period = period;

    wl::Workload w = wl::makeWorkload(name);
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, 0);
    wl::RecordingTraceSource rec(emu);
    {
        core::Pipeline pipe(cfg.core, cfg.mech, rec, cfg.seed ^ 0x9e37);
        pipe.run(warmup + measure);
    }
    rec.recordSlack(8192);

    wl::TraceHeader header;
    header.workload = name;
    header.programLength = w.program.size();
    std::shared_ptr<const wl::DecodedTrace> trace =
        wl::DecodedTrace::fromRecords(header, rec.records());

    auto timed_run = [&](bool sampling) {
        wl::ReplayTraceSource src(trace, w.program, "<memory>");
        core::Pipeline pipe(cfg.core, cfg.mech, src, cfg.seed ^ 0x9e37);
        pipe.run(warmup);
        pipe.resetStats();
        core::StatSampler sampler(period);
        if (sampling)
            pipe.attachSampler(&sampler);
        auto t0 = Clock::now();
        pipe.run(measure);
        if (sampling)
            pipe.finishSampling();
        double secs = secsBetween(t0, Clock::now());
        if (sampling)
            so.rows = sampler.rows().size();
        return secs;
    };

    so.offSecs = so.onSecs = 1e30;
    for (int round = 0; round < 3; ++round) {
        so.offSecs = std::min(so.offSecs, timed_run(false));
        so.onSecs = std::min(so.onSecs, timed_run(true));
    }
    return so;
}

/** One timed runMatrix sweep (suite x 1 scenario, quiet). */
double
timeMatrix(const sim::SimConfig &cfg,
           const std::vector<std::string> &benchmarks, unsigned jobs,
           sim::StealMode steal)
{
    sim::MatrixOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.steal = steal;
    std::vector<sim::SimConfig> configs{cfg};
    auto t0 = Clock::now();
    sim::runMatrix(configs, benchmarks, opts);
    return secsBetween(t0, Clock::now());
}

bool
readBaseline(const std::string &path,
             std::map<std::string, std::pair<double, double>> &out,
             std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = path + ": cannot open baseline file";
        return false;
    }
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name;
        double live = 0.0, replay = 0.0;
        if (!(ls >> name >> live >> replay)) {
            err = path + ": malformed line '" + line + "'";
            return false;
        }
        out[name] = {live, replay};
    }
    return true;
}

std::string
jsonNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

double
gmeanOf(const std::vector<double> &v)
{
    return geometricMean(v);
}

/**
 * The replay-sweep benchmark: record the workload set's traces once,
 * then time a multi-arm replay matrix. Every arm replays the same
 * (workload, phase) traces, so the decoded-trace cache turns S arms x
 * one decode-per-cell into one decode total per trace — the
 * timing.trace_decode_hits counter in the report is the evidence.
 */
int
runSweep(const Options &opt, const std::vector<std::string> &names)
{
    std::vector<sim::SimConfig> configs;
    for (const std::string &name : opt.sweepScenarios) {
        std::optional<sim::Scenario> sc = sim::findScenario(name);
        if (!sc)
            return usageError("unknown sweep scenario '" + name + "'");
        sim::SimConfig cfg = sc->config;
        cfg.warmupInsts = opt.sweepWarmup;
        cfg.measureInsts = opt.sweepMeasure;
        cfg.checkpoints = opt.sweepCheckpoints;
        configs.push_back(std::move(cfg));
    }
    if (configs.empty())
        return usageError("--sweep-scenarios list is empty");

    // Record pass (not timed): traces are architectural, so one
    // full-sizing baseline-core pass records for every arm; each sweep
    // cell then replays a short window out of its long trace
    // (record once, replay many).
    std::printf("sweep: recording %zu workload(s) x %u checkpoint(s) "
                "at %llu insts into %s\n",
                names.size(), opt.sweepCheckpoints,
                static_cast<unsigned long long>(opt.sweepRecordWarmup +
                                                opt.sweepRecordMeasure),
                opt.sweepTraceDir.c_str());
    std::fflush(stdout);
    sim::SimConfig reccfg = configs[0];
    reccfg.warmupInsts = opt.sweepRecordWarmup;
    reccfg.measureInsts = opt.sweepRecordMeasure;
    sim::MatrixOptions rec;
    rec.jobs = 0; // recording is off the clock: use every core.
    rec.progress = false;
    rec.traceIo.recordDir = opt.sweepTraceDir;
    sim::runMatrix({reccfg}, names, rec);

    // Timed replay rounds. Round 1 starts decode-cold (the cache is
    // cleared), later rounds replay fully warm — both temperatures
    // matter: cold is what a fresh sweep process pays, warm is the
    // steady state of a long-lived fleet worker.
    struct Round
    {
        double wallSecs = 0.0;
        u64 traceLoadMicros = 0;
        u64 decodeHits = 0;
        u64 decodeMisses = 0;
    };
    std::vector<Round> rounds;
    wl::traceCache().clear();
    for (unsigned r = 0; r < opt.sweepRounds; ++r) {
        wl::traceCache().resetStats();
        sim::MatrixOptions mo;
        mo.jobs = opt.sweepJobs;
        mo.progress = false;
        mo.traceIo.replayDir = opt.sweepTraceDir;
        auto t0 = Clock::now();
        auto rows = sim::runMatrix(configs, names, mo);
        Round round;
        round.wallSecs = secsBetween(t0, Clock::now());
        for (const auto &row : rows)
            for (const sim::RunResult &rr : row.byConfig) {
                round.traceLoadMicros += rr.timing.traceLoadMicros.value();
                round.decodeHits += rr.timing.traceDecodeHits.value();
                round.decodeMisses += rr.timing.traceDecodeMisses.value();
            }
        std::printf("sweep round %u (%s): wall %.3f s, trace load "
                    "%.3f s, decode %llu hit%s / %llu miss%s\n",
                    r + 1, r == 0 ? "cold" : "warm", round.wallSecs,
                    static_cast<double>(round.traceLoadMicros) / 1e6,
                    static_cast<unsigned long long>(round.decodeHits),
                    round.decodeHits == 1 ? "" : "s",
                    static_cast<unsigned long long>(round.decodeMisses),
                    round.decodeMisses == 1 ? "" : "es");
        std::fflush(stdout);
        rounds.push_back(round);
    }
    double best = rounds[0].wallSecs;
    for (const Round &r : rounds)
        best = std::min(best, r.wallSecs);
    if (opt.sweepBaselineWall > 0.0)
        std::printf("sweep best %.3f s vs baseline %.3f s: %.2fx\n", best,
                    opt.sweepBaselineWall, opt.sweepBaselineWall / best);

    if (!opt.perfJsonPath.empty()) {
        std::ostringstream os;
        os << "{\n";
        os << "  \"suite\": \"rsep replay-sweep trace data path\",\n";
        os << "  \"scenarios\": [";
        for (size_t i = 0; i < opt.sweepScenarios.size(); ++i)
            os << (i ? ", " : "") << "\"" << opt.sweepScenarios[i] << "\"";
        os << "],\n";
        os << "  \"workloads\": [";
        for (size_t i = 0; i < names.size(); ++i)
            os << (i ? ", " : "") << "\"" << names[i] << "\"";
        os << "],\n";
        os << "  \"warmup_insts\": " << opt.sweepWarmup << ",\n";
        os << "  \"measure_insts\": " << opt.sweepMeasure << ",\n";
        os << "  \"checkpoints\": " << opt.sweepCheckpoints << ",\n";
        os << "  \"jobs\": " << opt.sweepJobs << ",\n";
        os << "  \"rounds\": [\n";
        for (size_t i = 0; i < rounds.size(); ++i) {
            const Round &r = rounds[i];
            os << "    {\"round\": " << i + 1 << ", \"temperature\": \""
               << (i == 0 ? "cold" : "warm")
               << "\", \"wall_s\": " << jsonNum(r.wallSecs)
               << ", \"trace_load_s\": "
               << jsonNum(static_cast<double>(r.traceLoadMicros) / 1e6)
               << ", \"trace_decode_hits\": " << r.decodeHits
               << ", \"trace_decode_misses\": " << r.decodeMisses << "}"
               << (i + 1 < rounds.size() ? "," : "") << "\n";
        }
        os << "  ],\n";
        os << "  \"best_wall_s\": " << jsonNum(best);
        if (opt.sweepBaselineWall > 0.0)
            os << ",\n  \"baseline_wall_s\": "
               << jsonNum(opt.sweepBaselineWall)
               << ",\n  \"baseline_note\": \"same sweep, paired "
                  "alternating rounds, older build's driver binary on "
                  "this host\",\n  \"speedup_vs_baseline\": "
               << jsonNum(opt.sweepBaselineWall / best);
        os << "\n}\n";
        std::ofstream f(opt.perfJsonPath);
        f << os.str();
        if (!f)
            return usageError("cannot write " + opt.perfJsonPath);
        std::fprintf(stderr, "[rsep_bench] wrote %s\n",
                     opt.perfJsonPath.c_str());
    }
    return 0;
}

int
runBench(const Options &opt)
{
    std::optional<sim::Scenario> sc = sim::findScenario(opt.scenario);
    if (!sc)
        return usageError("unknown scenario '" + opt.scenario + "'");
    sim::SimConfig cfg = sc->config;

    std::map<std::string, std::pair<double, double>> baseline;
    if (!opt.baselinePath.empty()) {
        std::string err;
        if (!readBaseline(opt.baselinePath, baseline, err))
            return usageError(err);
    }

    std::map<std::string, std::string> archetypes = archetypeMap();
    std::vector<std::string> names = opt.workloads;
    if (!opt.workloadSet.empty()) {
        if (!names.empty())
            return usageError(
                "--workload and --workload-set are exclusive");
        std::string err;
        if (!resolveWorkloadSet(opt.workloadSet, archetypes, names, err))
            return usageError(err);
    }
    if (opt.sweep) {
        if (names.empty()) {
            // The branchy set is the sweep default: per-cell trace
            // volume is highest where branch events are densest.
            std::string err;
            if (!resolveWorkloadSet("branchy", archetypes, names, err))
                return usageError(err);
        }
        return runSweep(opt, names);
    }
    if (names.empty())
        names = wl::suiteNames();

    // ---- single-thread per-workload timing ----
    std::vector<WorkloadPerf> perfs;
    for (const std::string &name : names) {
        WorkloadPerf perf =
            timeWorkload(cfg, name, opt.warmup, opt.measure);
        auto at = archetypes.find(name);
        perf.archetype = at != archetypes.end() ? at->second : "?";
        auto bl = baseline.find(name);
        if (bl != baseline.end())
            perf.baselineReplayMips = bl->second.second;
        std::printf("%-12s %-14s live %7.3f Minst/s  replay %7.3f "
                    "Minst/s (%.2fx)%s\n",
                    perf.workload.c_str(), perf.archetype.c_str(),
                    perf.liveMips, perf.replayMips,
                    perf.liveMips > 0.0 ? perf.replayMips / perf.liveMips
                                        : 0.0,
                    perf.baselineReplayMips > 0.0
                        ? ("  [" +
                           jsonNum(perf.replayMips /
                                   perf.baselineReplayMips) +
                           "x vs baseline]")
                              .c_str()
                        : "");
        std::fflush(stdout);
        perfs.push_back(perf);
    }

    std::vector<double> live, replay, vs_baseline;
    for (const WorkloadPerf &p : perfs) {
        live.push_back(p.liveMips);
        replay.push_back(p.replayMips);
        if (p.baselineReplayMips > 0.0)
            vs_baseline.push_back(p.replayMips / p.baselineReplayMips);
    }
    double gm_live = gmeanOf(live);
    double gm_replay = gmeanOf(replay);
    double gm_speedup = gmeanOf(vs_baseline);
    std::printf("gmean        live %7.3f Minst/s  replay %7.3f Minst/s "
                "(%.2fx)%s\n",
                gm_live, gm_replay,
                gm_live > 0.0 ? gm_replay / gm_live : 0.0,
                vs_baseline.empty()
                    ? ""
                    : ("  [" + jsonNum(gm_speedup) + "x vs baseline]")
                          .c_str());

    // ---- sampling-overhead study ----
    SamplingOverhead so;
    if (opt.sampleEvery > 0) {
        // One branchy cell: densest per-cycle event rate, so the
        // per-iteration sampler null-check is least hidden by stalls.
        so = timeSamplingOverhead(cfg, "gobmk", opt.warmup, opt.measure,
                                  opt.sampleEvery);
        std::printf("sampling     %-12s every %llu cycles: off %.3f s, "
                    "on %.3f s, overhead %.2f%% (%zu rows, %.0f "
                    "samples/s)\n",
                    so.workload.c_str(),
                    static_cast<unsigned long long>(so.period), so.offSecs,
                    so.onSecs, so.overheadPct(),
                    static_cast<size_t>(so.rows), so.samplesPerSec());
        std::fflush(stdout);
    }

    // ---- thread-scaling study ----
    std::vector<ScalingPoint> scaling;
    if (opt.scaling) {
        sim::SimConfig scfg = cfg;
        scfg.warmupInsts = opt.scalingMeasure / 4;
        scfg.measureInsts = opt.scalingMeasure;
        scfg.checkpoints = 4; // several cells per run window.
        for (sim::StealMode steal :
             {sim::StealMode::Cell, sim::StealMode::Window}) {
            const char *steal_name =
                steal == sim::StealMode::Cell ? "cell" : "window";
            for (unsigned jobs : opt.threads) {
                double wall = timeMatrix(scfg, names, jobs, steal);
                scaling.push_back({steal_name, jobs, wall});
                std::printf("scaling steal=%-6s jobs=%-3u wall %.3f s\n",
                            steal_name, jobs, wall);
                std::fflush(stdout);
            }
        }
    }

    // ---- reports ----
    if (!opt.writeBaselinePath.empty()) {
        std::ofstream os(opt.writeBaselinePath);
        os << "# rsep_bench baseline: workload live-Minst/s "
              "replay-Minst/s\n";
        for (const WorkloadPerf &p : perfs)
            os << p.workload << " " << jsonNum(p.liveMips) << " "
               << jsonNum(p.replayMips) << "\n";
        if (!os)
            return usageError("cannot write " + opt.writeBaselinePath);
        std::fprintf(stderr, "[rsep_bench] wrote %s\n",
                     opt.writeBaselinePath.c_str());
    }

    if (!opt.perfJsonPath.empty()) {
        std::ostringstream os;
        os << "{\n";
        os << "  \"suite\": \"rsep cycle-loop throughput\",\n";
        os << "  \"scenario\": \"" << opt.scenario << "\",\n";
        if (!opt.workloadSet.empty())
            os << "  \"workload_set\": \"" << opt.workloadSet << "\",\n";
        os << "  \"warmup_insts\": " << opt.warmup << ",\n";
        os << "  \"measure_insts\": " << opt.measure << ",\n";
        os << "  \"host_threads\": "
           << std::thread::hardware_concurrency() << ",\n";
        os << "  \"host_threads_note\": \"runMatrix scaling speedups "
              "are bounded by host_threads; on a 1-core host the "
              "thread-scaling curve is expected flat\",\n";
        os << "  \"single_thread\": [\n";
        for (size_t i = 0; i < perfs.size(); ++i) {
            const WorkloadPerf &p = perfs[i];
            os << "    {\"workload\": \"" << p.workload
               << "\", \"archetype\": \"" << p.archetype
               << "\", \"live_minst_per_s\": " << jsonNum(p.liveMips)
               << ", \"replay_minst_per_s\": " << jsonNum(p.replayMips)
               << ", \"replay_vs_live\": "
               << jsonNum(p.liveMips > 0.0 ? p.replayMips / p.liveMips
                                           : 0.0);
            if (p.baselineReplayMips > 0.0)
                os << ", \"baseline_replay_minst_per_s\": "
                   << jsonNum(p.baselineReplayMips)
                   << ", \"speedup_vs_baseline\": "
                   << jsonNum(p.replayMips / p.baselineReplayMips);
            os << "}" << (i + 1 < perfs.size() ? "," : "") << "\n";
        }
        os << "  ],\n";

        // Per-archetype gmeans.
        std::map<std::string, std::vector<const WorkloadPerf *>> groups;
        for (const WorkloadPerf &p : perfs)
            groups[p.archetype].push_back(&p);
        os << "  \"archetypes\": [\n";
        size_t gi = 0;
        for (const auto &[arch, members] : groups) {
            std::vector<double> l, r, s;
            for (const WorkloadPerf *p : members) {
                l.push_back(p->liveMips);
                r.push_back(p->replayMips);
                if (p->baselineReplayMips > 0.0)
                    s.push_back(p->replayMips / p->baselineReplayMips);
            }
            os << "    {\"archetype\": \"" << arch
               << "\", \"workloads\": " << members.size()
               << ", \"gmean_live_minst_per_s\": " << jsonNum(gmeanOf(l))
               << ", \"gmean_replay_minst_per_s\": "
               << jsonNum(gmeanOf(r));
            if (!s.empty())
                os << ", \"gmean_speedup_vs_baseline\": "
                   << jsonNum(gmeanOf(s));
            os << "}" << (++gi < groups.size() ? "," : "") << "\n";
        }
        os << "  ],\n";

        os << "  \"gmean\": {\"live_minst_per_s\": " << jsonNum(gm_live)
           << ", \"replay_minst_per_s\": " << jsonNum(gm_replay)
           << ", \"replay_vs_live\": "
           << jsonNum(gm_live > 0.0 ? gm_replay / gm_live : 0.0);
        if (!vs_baseline.empty())
            os << ", \"speedup_vs_baseline\": " << jsonNum(gm_speedup);
        os << "},\n";

        if (opt.sampleEvery > 0)
            os << "  \"sampling\": {\"workload\": \"" << so.workload
               << "\", \"sample_every_cycles\": " << so.period
               << ", \"off_wall_s\": " << jsonNum(so.offSecs)
               << ", \"on_wall_s\": " << jsonNum(so.onSecs)
               << ", \"overhead_pct\": " << jsonNum(so.overheadPct())
               << ", \"rows\": " << so.rows
               << ", \"samples_per_sec\": " << jsonNum(so.samplesPerSec())
               << ", \"acceptance\": \"overhead_pct < 3\"},\n";

        os << "  \"scaling\": [\n";
        double base_cell = 0.0, base_window = 0.0;
        for (const ScalingPoint &pt : scaling)
            if (pt.jobs == 1) {
                (std::strcmp(pt.steal, "cell") == 0 ? base_cell
                                                    : base_window) =
                    pt.wallSecs;
            }
        for (size_t i = 0; i < scaling.size(); ++i) {
            const ScalingPoint &pt = scaling[i];
            double base = std::strcmp(pt.steal, "cell") == 0
                ? base_cell
                : base_window;
            os << "    {\"steal\": \"" << pt.steal
               << "\", \"jobs\": " << pt.jobs
               << ", \"wall_s\": " << jsonNum(pt.wallSecs);
            if (base > 0.0)
                os << ", \"speedup_vs_1_thread\": "
                   << jsonNum(base / pt.wallSecs);
            os << "}" << (i + 1 < scaling.size() ? "," : "") << "\n";
        }
        os << "  ]\n";
        os << "}\n";

        std::ofstream f(opt.perfJsonPath);
        f << os.str();
        if (!f)
            return usageError("cannot write " + opt.perfJsonPath);
        std::fprintf(stderr, "[rsep_bench] wrote %s\n",
                     opt.perfJsonPath.c_str());
    }
    return 0;
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

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *flag, std::string &v) -> int {
            size_t n = std::strlen(flag);
            if (a.compare(0, n, flag) != 0)
                return 0;
            if (a.size() == n) {
                if (i + 1 >= argc)
                    return -1;
                v = argv[++i];
                return 1;
            }
            if (a[n] != '=')
                return 0;
            v = a.substr(n + 1);
            return 1;
        };
        auto number = [&](const std::string &v, u64 &out) {
            char *end = nullptr;
            out = std::strtoull(v.c_str(), &end, 10);
            return end && *end == '\0' && !v.empty();
        };

        if (a == "--help" || a == "-h") {
            printHelp();
            return 0;
        }
        if (a == "--no-scaling") {
            opt.scaling = false;
            continue;
        }
        if (a == "--sweep") {
            opt.sweep = true;
            continue;
        }
        std::string v;
        int hit;
        u64 n = 0;
        if ((hit = value("--perf-json", v)) != 0) {
            if (hit < 0)
                return usageError("--perf-json requires a path");
            opt.perfJsonPath = v;
        } else if ((hit = value("--baseline", v)) != 0) {
            if (hit < 0)
                return usageError("--baseline requires a path");
            opt.baselinePath = v;
        } else if ((hit = value("--write-baseline", v)) != 0) {
            if (hit < 0)
                return usageError("--write-baseline requires a path");
            opt.writeBaselinePath = v;
        } else if ((hit = value("--scenario", v)) != 0) {
            if (hit < 0)
                return usageError("--scenario requires a name");
            opt.scenario = v;
        } else if ((hit = value("--workload-set", v)) != 0) {
            if (hit < 0)
                return usageError("--workload-set requires a name");
            opt.workloadSet = v;
        } else if ((hit = value("--workload", v)) != 0) {
            if (hit < 0)
                return usageError("--workload requires a name");
            for (const std::string &name : splitCommas(v))
                opt.workloads.push_back(name);
        } else if ((hit = value("--warmup", v)) != 0) {
            if (hit < 0 || !number(v, opt.warmup))
                return usageError("--warmup requires a count");
        } else if ((hit = value("--measure", v)) != 0) {
            if (hit < 0 || !number(v, opt.measure))
                return usageError("--measure requires a count");
        } else if ((hit = value("--scaling-measure", v)) != 0) {
            if (hit < 0 || !number(v, opt.scalingMeasure))
                return usageError("--scaling-measure requires a count");
        } else if ((hit = value("--sample-every", v)) != 0) {
            if (hit < 0 || !number(v, opt.sampleEvery))
                return usageError("--sample-every requires a cycle count "
                                  "(0 skips the sampling study)");
        } else if ((hit = value("--sweep-scenarios", v)) != 0) {
            if (hit < 0)
                return usageError("--sweep-scenarios requires a list");
            opt.sweepScenarios = splitCommas(v);
        } else if ((hit = value("--sweep-trace-dir", v)) != 0) {
            if (hit < 0 || v.empty())
                return usageError("--sweep-trace-dir requires a path");
            opt.sweepTraceDir = v;
        } else if ((hit = value("--sweep-rounds", v)) != 0) {
            if (hit < 0 || !number(v, n) || n == 0 || n > 100)
                return usageError("--sweep-rounds requires a count "
                                  "(1..100)");
            opt.sweepRounds = static_cast<unsigned>(n);
        } else if ((hit = value("--sweep-baseline-wall", v)) != 0) {
            if (hit < 0)
                return usageError("--sweep-baseline-wall requires "
                                  "seconds");
            char *end = nullptr;
            opt.sweepBaselineWall = std::strtod(v.c_str(), &end);
            if (!end || *end != '\0' || v.empty() ||
                opt.sweepBaselineWall <= 0.0)
                return usageError("invalid --sweep-baseline-wall '" + v +
                                  "'");
        } else if ((hit = value("--threads", v)) != 0) {
            if (hit < 0)
                return usageError("--threads requires a list");
            opt.threads.clear();
            for (const std::string &t : splitCommas(v)) {
                if (!number(t, n) || n == 0 || n > sim::maxJobs)
                    return usageError("bad thread count '" + t + "'");
                opt.threads.push_back(static_cast<unsigned>(n));
            }
            if (opt.threads.empty())
                return usageError("--threads list is empty");
        } else if (!a.empty() && a[0] == '-') {
            return usageError("unknown option '" + a + "'");
        } else {
            return usageError("unexpected argument '" + a + "'");
        }
    }
    return runBench(opt);
}
