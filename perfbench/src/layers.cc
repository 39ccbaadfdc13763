/**
 * @file
 * The traced run's per-layer metrics. Each probe drives one layer's
 * public functions on its own, over inputs taken from real workloads,
 * inside spans named after the layer and the function. The probes are
 * the same on every workload (so a number can be followed across
 * workloads); what the workload itself contributes — its cells, its
 * traces, its daemon — is folded in from Workload::lastOutput() and
 * Workload::layerMetrics().
 */

#include <algorithm>
#include <filesystem>
#include <optional>

#include "bench.hh"
#include "core/pipeline.hh"
#include "layers.hh"
#include "mem/hierarchy.hh"
#include "pred/branch_unit.hh"
#include "pred/dvtage.hh"
#include "rsep/fifo_history.hh"
#include "rsep/hash.hh"
#include "sim/result_cache.hh"
#include "sim/scenario.hh"
#include "wl/emulator.hh"
#include "wl/suite.hh"
#include "wl/trace_io.hh"

namespace perfbench
{

namespace
{

namespace wl = rsep::wl;
namespace sim = rsep::sim;

/** Every arm the core probe replays. */
const std::vector<std::string> coreArms = {
    "baseline", "zero-pred", "move-elim",   "rsep",
    "vpred",    "rsep+vpred", "rsep-oracle", "rsep-realistic"};

// Core probe: the ROADMAP's replay gmean set, one checkpoint each.
const std::vector<std::string> coreBenches = {"gcc", "hmmer", "perlbench",
                                              "mcf"};
constexpr u64 coreWarmup = 5000;
constexpr u64 coreMeasure = 40000;
constexpr u64 coreSlack = 16384; ///< replay lookahead past the window.
constexpr int constructRepeats = 3;

const std::vector<std::string> branchyBenches = {"gobmk", "sjeng", "astar",
                                                 "perlbench"};
constexpr u64 emulateSteps = 100000;
constexpr u64 branchStreamInsts = 100000;
constexpr u64 memStreamInsts = 300000;
constexpr std::size_t cacheProbeCells = 64;
constexpr int scenarioParses = 200;

/** A workload with its first committed instructions. */
struct Stream
{
    wl::Workload w;
    std::vector<wl::DynRecord> recs;
};

Stream
emulate(const std::string &bench, u64 n)
{
    Stream s{wl::makeWorkload(bench), {}};
    wl::Emulator emu(s.w.program);
    emu.resetArchState();
    s.w.init(emu, 0);
    s.recs.reserve(n);
    for (u64 i = 0; i < n; ++i)
        s.recs.push_back(emu.step());
    return s;
}

double
nsPer(double seconds, u64 n)
{
    return n ? seconds * 1e9 / static_cast<double>(n) : 0.0;
}

/** wl.build_s and wl.emulate_ns_per_inst over the workload's set. */
void
probeWorkloadBuild(const std::vector<std::string> &benches,
                   LayerMetrics &m, Tracer &tr)
{
    double build = 0.0, step = 0.0;
    u64 steps = 0;
    for (const std::string &b : benches) {
        auto t0 = Clock::now();
        Tracer::Span s = tr.span("wl.makeWorkload+init");
        wl::Workload w = wl::makeWorkload(b);
        wl::Emulator emu(w.program);
        emu.resetArchState();
        w.init(emu, 0);
        s.close();
        build += secondsSince(t0);

        auto t1 = Clock::now();
        Tracer::Span e = tr.span("wl.Emulator.step", emulateSteps);
        for (u64 i = 0; i < emulateSteps; ++i)
            emu.step();
        e.close();
        step += secondsSince(t1);
        steps += emulateSteps;
    }
    setLayer(m, "wl.build_s", build);
    setLayer(m, "wl.emulate_ns_per_inst", nsPer(step, steps));
}

/** Replay Minst/s, engine cost and construction cost for every arm. */
void
probeCore(u64 seed, LayerMetrics &m, Tracer &tr)
{
    struct Replay
    {
        Stream stream;
        std::shared_ptr<const wl::DecodedTrace> trace;
    };
    std::vector<Replay> replays;
    for (const std::string &b : coreBenches) {
        Replay r{emulate(b, coreWarmup + coreMeasure + coreSlack), nullptr};
        wl::TraceHeader h;
        h.workload = b;
        h.programLength = r.stream.w.program.size();
        h.records = r.stream.recs.size();
        r.trace = wl::DecodedTrace::fromRecords(h, r.stream.recs);
        replays.push_back(std::move(r));
    }

    std::map<std::string, double> nsPerInst;
    for (const std::string &arm : coreArms) {
        sim::SimConfig cfg = armConfig(arm, coreWarmup, coreMeasure, 1, seed);
        std::string key = armKey(arm);
        double runSecs = 0.0, constructSecs = 0.0;
        u64 insts = 0;
        for (const Replay &r : replays) {
            for (int k = 0; k < constructRepeats; ++k) {
                wl::ReplayTraceSource src(r.trace, r.stream.w.program,
                                          "<memory>");
                auto t0 = Clock::now();
                Tracer::Span s = tr.span("core.Pipeline.construct." + key);
                auto pipe = std::make_unique<rsep::core::Pipeline>(
                    cfg.core, cfg.mech, src, cfg.seed ^ 0x9e37);
                s.close();
                constructSecs += secondsSince(t0);
            }
            wl::ReplayTraceSource src(r.trace, r.stream.w.program,
                                      "<memory>");
            rsep::core::Pipeline pipe(cfg.core, cfg.mech, src,
                                      cfg.seed ^ 0x9e37);
            pipe.run(coreWarmup);
            pipe.resetStats();
            auto t0 = Clock::now();
            Tracer::Span s = tr.span("core.Pipeline.run." + key);
            pipe.run(coreMeasure);
            u64 n = pipe.stats().committedInsts.value();
            s.setCount(n);
            s.close();
            runSecs += secondsSince(t0);
            insts += n;
        }
        nsPerInst[key] = nsPer(runSecs, insts);
        setLayer(m, "core.replay_minst_per_s." + key,
                 static_cast<double>(insts) / 1e6 / runSecs);
        setLayer(m, "core.pipeline_construct_us." + key,
                 constructSecs * 1e6 /
                     static_cast<double>(constructRepeats * replays.size()));
    }
    for (const auto &[key, ns] : nsPerInst)
        if (key != "baseline")
            setLayer(m, "core.engine_ns_per_inst." + key,
                     ns - nsPerInst.at("baseline"));
}

/** FIFO history push+match cost over a real hash stream, and the
 *  history's own counters after a fig4-live-sized rsep cell. */
void
probeRsep(u64 seed, LayerMetrics &m, Tracer &tr)
{
    Stream s = emulate("hmmer", 200000);
    std::vector<rsep::u16> hashes;
    std::vector<u32> idxs;
    std::vector<u64> values;
    for (const wl::DynRecord &r : s.recs)
        if (s.w.program.at(r.staticIdx).writesReg()) {
            hashes.push_back(rsep::equality::foldHash(r.result));
            idxs.push_back(r.staticIdx);
            values.push_back(r.result);
        }
    for (unsigned depth : {1024u, 128u}) {
        rsep::equality::FifoHistory h(depth);
        // Stand-in for the distance predictor: the distance this static
        // instruction last matched at, the way the engine propagates a
        // predicted distance to commit.
        std::vector<u32> lastDist(s.w.program.size(), 0);
        auto t0 = Clock::now();
        Tracer::Span span = tr.span("rsep.FifoHistory.match+push",
                                    hashes.size());
        for (std::size_t i = 0; i < hashes.size(); ++i) {
            u32 csn = static_cast<u32>(i);
            std::optional<u32> pred;
            if (lastDist[idxs[i]])
                pred = lastDist[idxs[i]];
            if (auto hit = h.match(hashes[i], csn, pred))
                lastDist[idxs[i]] = hit->distance;
            h.push(hashes[i], csn, i, true, values[i]);
        }
        span.close();
        setLayer(m, "rsep.fifo_match_ns.d" + std::to_string(depth),
                 nsPer(secondsSince(t0), hashes.size()));
    }

    // One live rsep cell at the fig4-live sizing.
    sim::SimConfig cfg = armConfig("rsep", 4000, 20000, 1, seed);
    wl::Workload w = wl::makeWorkload("hmmer");
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, 0);
    rsep::core::Pipeline pipe(cfg.core, cfg.mech, emu, cfg.seed ^ 0x9e37);
    {
        Tracer::Span span = tr.span("core.Pipeline.run.rsep-live");
        pipe.run(cfg.warmupInsts);
        pipe.resetStats();
        pipe.run(cfg.measureInsts);
    }
    const rsep::equality::FifoHistory &h = pipe.fifoHistory();
    double matches = static_cast<double>(h.matches.value());
    setLayer(m, "rsep.fifo.comparisons_per_match",
             matches ? static_cast<double>(h.comparisons.value()) / matches
                     : 0.0);
    setLayer(m, "rsep.fifo.match_ratio",
             h.pushes.value() ? matches / static_cast<double>(h.pushes.value())
                              : 0.0);
    u64 shared = 0, failed = 0;
    if (const rsep::core::SpeculationEngine *e = pipe.engineByName("rsep"))
        for (const auto &entry : e->statEntries()) {
            if (entry.name == "shared")
                shared += entry.counter->value();
            else if (entry.name.rfind("shareFail", 0) == 0)
                failed += entry.counter->value();
        }
    setLayer(m, "rsep.share_fail_ratio",
             shared + failed ? static_cast<double>(failed) /
                                   static_cast<double>(shared + failed)
                             : 0.0);
}

/** BranchUnit over the branchy set's branches, D-VTAGE over the core
 *  probe's producers. */
void
probePred(LayerMetrics &m, Tracer &tr)
{
    double secs = 0.0;
    u64 branches = 0;
    for (const std::string &b : branchyBenches) {
        Stream s = emulate(b, branchStreamInsts);
        rsep::pred::BranchUnit bu;
        auto t0 = Clock::now();
        Tracer::Span span = tr.span("pred.BranchUnit.fetch+commit");
        u64 n = 0;
        for (const wl::DynRecord &r : s.recs) {
            const rsep::isa::StaticInst &si = s.w.program.at(r.staticIdx);
            if (!si.isBranch())
                continue;
            rsep::Addr pc = rsep::isa::Program::pcOf(r.staticIdx);
            rsep::Addr target = rsep::isa::Program::pcOf(r.nextIdx);
            rsep::pred::BranchPrediction bp =
                bu.onFetchBranch(pc, si, r.taken, target);
            bu.onCommitBranch(bp, pc, si, target);
            ++n;
        }
        span.setCount(n);
        span.close();
        secs += secondsSince(t0);
        branches += n;
    }
    setLayer(m, "pred.branch_ns_per_branch", nsPer(secs, branches));

    secs = 0.0;
    u64 lookups = 0;
    for (const std::string &b : coreBenches) {
        Stream s = emulate(b, branchStreamInsts);
        rsep::pred::Dvtage dv;
        rsep::pred::GlobalHist hist;
        auto t0 = Clock::now();
        Tracer::Span span = tr.span("pred.Dvtage.lookup+commit");
        u64 n = 0;
        for (const wl::DynRecord &r : s.recs) {
            const rsep::isa::StaticInst &si = s.w.program.at(r.staticIdx);
            rsep::Addr pc = rsep::isa::Program::pcOf(r.staticIdx);
            if (si.writesReg()) {
                rsep::pred::VpLookup lk = dv.lookup(pc, hist);
                if (lk.confident)
                    dv.notifySpeculated(lk);
                dv.commit(lk, r.result);
                ++n;
            }
            if (si.isCondBranch())
                hist.insert(r.taken, pc);
            else if (si.isBranch())
                hist.insertPath(rsep::isa::Program::pcOf(r.nextIdx));
        }
        span.setCount(n);
        span.close();
        secs += secondsSince(t0);
        lookups += n;
    }
    setLayer(m, "pred.dvtage_ns", nsPer(secs, lookups));
}

/** MemoryHierarchy over a pointer-chasing and a streaming address
 *  stream. */
void
probeMem(LayerMetrics &m, Tracer &tr)
{
    for (const char *b : {"mcf", "lbm"}) {
        Stream s = emulate(b, memStreamInsts);
        rsep::mem::MemoryHierarchy hier;
        rsep::Cycle now = 0;
        u64 n = 0;
        auto t0 = Clock::now();
        Tracer::Span span = tr.span(std::string("mem.MemoryHierarchy.access.") +
                                    b);
        // Each load waits for its data before the next access issues, so
        // the miss trackers stay within their MSHR budget the way the
        // core's window keeps them there.
        for (const wl::DynRecord &r : s.recs) {
            const rsep::isa::StaticInst &si = s.w.program.at(r.staticIdx);
            if (si.isLoad())
                now = std::max(now + 1,
                               hier.load(rsep::isa::Program::pcOf(r.staticIdx),
                                         r.effAddr, now));
            else if (si.isStore())
                hier.storeCommit(r.effAddr, now++);
            else
                continue;
            ++n;
        }
        span.setCount(n);
        span.close();
        setLayer(m, std::string("mem.access_ns.") + b,
                 nsPer(secondsSince(t0), n));
    }
}

/** Counts derived from the workload's simulated output, plus the
 *  export, scenario-parse and result-cache probes over its cells. */
void
probeSim(const Options &opt, const std::vector<SimOutput> &outs,
         LayerMetrics &m, Tracer &tr)
{
    std::vector<double> cellMs;
    std::map<std::string, std::vector<double>> ipcByArm;
    std::vector<double> rsepSpeedups;
    for (const SimOutput &o : outs) {
        std::optional<std::size_t> base, rsepArm;
        for (std::size_t c = 0; c < o.configs.size(); ++c) {
            if (o.configs[c].label == "baseline")
                base = c;
            if (o.configs[c].label == "rsep")
                rsepArm = c;
        }
        for (const sim::MatrixRow &row : o.rows) {
            for (std::size_t c = 0; c < o.configs.size(); ++c) {
                const sim::RunResult &rr = row.byConfig[c];
                ipcByArm[armKey(o.configs[c].label)].push_back(rr.ipcHmean());
                for (const sim::PhaseResult &ph : rr.phases)
                    cellMs.push_back(static_cast<double>(ph.wallMicros) / 1e3);
            }
            if (base && rsepArm)
                rsepSpeedups.push_back(row.byConfig[*rsepArm].ipcHmean() /
                                       row.byConfig[*base].ipcHmean());
        }
    }
    for (const std::string &arm : fig4Arms())
        if (auto it = ipcByArm.find(armKey(arm)); it != ipcByArm.end())
            setLayer(m, "core.ipc_gmean." + armKey(arm),
                     rsep::geometricMean(it->second));
    if (!rsepSpeedups.empty())
        setLayer(m, "core.rsep_speedup_gmean_pct",
                 (rsep::geometricMean(rsepSpeedups) - 1.0) * 100.0);
    setLayer(m, "sim.cell_wall_ms.p50", median(cellMs));
    setLayer(m, "sim.cell_wall_ms.max",
             cellMs.empty() ? 0.0
                            : *std::max_element(cellMs.begin(), cellMs.end()));

    auto t0 = Clock::now();
    std::string csv;
    {
        Tracer::Span s = tr.span("sim.collectStatRows+CsvStatSink",
                                 outs.size());
        for (const SimOutput &o : outs)
            csv += canonicalCsv(o);
    }
    setLayer(m, "sim.stat_export_ms", secondsSince(t0) * 1e3);
    setLayer(m, "sim.stat_digest", digest53(csv));

    std::vector<sim::Scenario> scenarios;
    for (const sim::SimConfig &c : outs.front().configs)
        scenarios.push_back({c.label, c});
    std::string text = sim::serializeScenarios(scenarios);
    t0 = Clock::now();
    {
        Tracer::Span s = tr.span("sim.parseScenarioText", scenarioParses);
        for (int i = 0; i < scenarioParses; ++i)
            if (!sim::parseScenarioText(text).ok())
                throw std::runtime_error("scenario text does not round-trip");
    }
    setLayer(m, "sim.scenario_parse_us",
             secondsSince(t0) * 1e6 / scenarioParses);

    // Result cache: store the workload's cells into a fresh directory,
    // load them back, then look up as many cells that are not there.
    struct Cell
    {
        sim::CacheKey key;
        const sim::PhaseResult *pr;
    };
    std::vector<Cell> cells;
    for (const SimOutput &o : outs)
        for (const sim::MatrixRow &row : o.rows)
            for (std::size_t c = 0; c < o.configs.size(); ++c)
                for (u32 p = 0; p < row.byConfig[c].phases.size(); ++p)
                    if (cells.size() < cacheProbeCells)
                        cells.push_back({{row.benchmark,
                                          sim::configHash(o.configs[c]), p,
                                          o.configs[c].seed},
                                         &row.byConfig[c].phases[p]});
    std::string dir = opt.workDir + "/cache-probe";
    std::filesystem::remove_all(dir);
    sim::ResultCache rc(dir);
    t0 = Clock::now();
    {
        Tracer::Span s = tr.span("sim.ResultCache.store", cells.size());
        for (const Cell &c : cells)
            if (!rc.store(c.key, *c.pr))
                throw std::runtime_error("result cache store failed");
    }
    setLayer(m, "sim.result_cache.store_us",
             secondsSince(t0) * 1e6 / static_cast<double>(cells.size()));
    t0 = Clock::now();
    {
        Tracer::Span s = tr.span("sim.ResultCache.load", cells.size());
        for (const Cell &c : cells)
            if (!rc.load(c.key))
                throw std::runtime_error("result cache lost a stored cell");
    }
    setLayer(m, "sim.result_cache.load_us",
             secondsSince(t0) * 1e6 / static_cast<double>(cells.size()));
    for (Cell c : cells) {
        c.key.phase += 1000;
        rc.load(c.key);
    }
    sim::ResultCache::Counters rcc = rc.counters();
    setLayer(m, "sim.result_cache.hits", static_cast<double>(rcc.hits));
    setLayer(m, "sim.result_cache.misses", static_cast<double>(rcc.misses));
    setLayer(m, "sim.result_cache.stores", static_cast<double>(rcc.stores));
    setLayer(m, "sim.result_cache.quarantined",
             static_cast<double>(rcc.quarantined));
}

/**
 * The serve layer, on workloads that do not drive the daemon
 * themselves: a short serve-mixed load (same daemon, clients and
 * request mix), of which only the serve.* numbers are kept.
 */
void
probeServe(const Options &opt, LayerMetrics &m, Tracer &tr)
{
    constexpr std::size_t requests = 400;
    std::unique_ptr<Workload> serve = makeServeMixed(opt);
    serve->setup(tr);
    PassStats ps;
    serve->run(ps, 0.0, requests, tr);
    if (ps.tally.failed())
        throw std::runtime_error("serve probe: " +
                                 std::to_string(ps.tally.failed()) +
                                 " requests failed");
    LayerMetrics all = declaredLayerMetrics();
    serve->layerMetrics(all, tr);
    for (const auto &[name, metric] : all)
        if (name.rfind("serve.", 0) == 0)
            setLayer(m, name, metric.value);
}

} // namespace

LayerMetrics
declaredLayerMetrics()
{
    LayerMetrics m;
    auto add = [&m](const std::string &name, const char *unit) {
        m[name] = Metric{name, 0.0, unit};
    };
    add("wl.build_s", "s");
    add("wl.emulate_ns_per_inst", "ns");
    add("wl.trace_decode_s", "s");
    add("wl.trace_cache.hits", "count");
    add("wl.trace_cache.misses", "count");
    add("wl.trace_cache.hit_ratio", "ratio");
    add("wl.trace_record_s", "s");
    for (const std::string &arm : coreArms) {
        add("core.replay_minst_per_s." + armKey(arm), "Minst/s");
        add("core.pipeline_construct_us." + armKey(arm), "us");
        if (arm != "baseline")
            add("core.engine_ns_per_inst." + armKey(arm), "ns");
    }
    for (const std::string &arm : fig4Arms())
        add("core.ipc_gmean." + armKey(arm), "IPC");
    add("core.rsep_speedup_gmean_pct", "%");
    add("sim.stat_digest", "hash");
    add("rsep.fifo_match_ns.d1024", "ns");
    add("rsep.fifo_match_ns.d128", "ns");
    add("rsep.fifo.comparisons_per_match", "count");
    add("rsep.fifo.match_ratio", "ratio");
    add("rsep.share_fail_ratio", "ratio");
    add("pred.branch_ns_per_branch", "ns");
    add("pred.dvtage_ns", "ns");
    add("mem.access_ns.mcf", "ns");
    add("mem.access_ns.lbm", "ns");
    add("sim.cell_wall_ms.p50", "ms");
    add("sim.cell_wall_ms.max", "ms");
    add("sim.stat_export_ms", "ms");
    add("sim.result_cache.load_us", "us");
    add("sim.result_cache.store_us", "us");
    add("sim.result_cache.hits", "count");
    add("sim.result_cache.misses", "count");
    add("sim.result_cache.stores", "count");
    add("sim.result_cache.quarantined", "count");
    add("sim.scenario_parse_us", "us");
    add("serve.queue_wait_ms.p50", "ms");
    add("serve.queue_wait_ms.tail", "ms");
    add("serve.server_wall_ms", "ms");
    add("serve.transport_ms", "ms");
    add("serve.batched_cells", "count");
    add("serve.busy_rejections", "count");
    add("serve.errors", "count");
    add("serve.dump_verify_ms", "ms");
    add("serve.cache_hits", "count");
    add("serve.cells_run", "count");
    add("trace_overhead_pct", "%");
    return m;
}

void
commonLayerProbes(const Options &opt, Workload &w, LayerMetrics &m,
                  Tracer &tr)
{
    u64 seed = seededDraw(opt.seed, 0);
    probeWorkloadBuild(w.benchmarks(), m, tr);
    probeCore(seed, m, tr);
    probeRsep(seed, m, tr);
    probePred(m, tr);
    probeMem(m, tr);
    probeSim(opt, w.lastOutput(), m, tr);
    if (opt.workload != "serve-mixed")
        probeServe(opt, m, tr);
}

} // namespace perfbench
