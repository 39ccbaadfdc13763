#include "sim/simulator.hh"

#include <atomic>
#include <chrono>
#include <filesystem>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/spec_engine.hh"
#include "wl/trace_cache.hh"
#include "wl/trace_io.hh"
#include "wl/workload_spec.hh"

namespace rsep::sim
{

double
RunResult::ipcHmean() const
{
    std::vector<double> v;
    v.reserve(phases.size());
    for (const auto &ph : phases)
        v.push_back(ph.ipc);
    return harmonicMean(v);
}

namespace
{

std::atomic<size_t> initialStatesAlive{0};

} // namespace

InitialState::InitialState(wl::Workload w, u32 phase)
    : workload(std::move(w))
{
    wl::Emulator emu(workload.program);
    emu.resetArchState();
    workload.init(emu, phase);
    image = emu.freeze();
    ++initialStatesAlive;
}

InitialState::~InitialState()
{
    --initialStatesAlive;
}

size_t
InitialState::alive()
{
    return initialStatesAlive.load();
}

namespace
{

/**
 * Slack records appended after a recording run: a later replay under a
 * config with a slightly deeper fetch lookahead (bigger ROB/front-end,
 * different squash pattern) may pull a few more records than the
 * recording config did. Generously above any lookahead the Table I
 * core family can reach, and cheap (~200KB per trace).
 */
constexpr u64 traceRecordSlack = 8192;

/** Append @p eng's registered counters to @p out as
 *  "engine.<name>.<counter>", each read through @p value. */
template <class Value>
void
exportEngine(PhaseResult &out, const core::SpeculationEngine &eng,
             const Value &value)
{
    for (const auto &entry : eng.statEntries())
        out.engineStats.emplace_back("engine." + eng.name() + "." +
                                         entry.name,
                                     value(*entry.counter));
}

/** @p pipe's statistics at the end of its measurement run. */
PhaseResult
collectResult(core::Pipeline &pipe)
{
    PhaseResult pr;
    pr.stats = pipe.stats();
    pr.ipc = pr.stats.ipc();
    for (const core::SpeculationEngine *eng : pipe.engines())
        exportEngine(pr, *eng,
                     [](const StatCounter &c) { return c.value(); });
    return pr;
}

/** How a cell's timing run may hand out forks: the program its
 *  snapshot points into, null when the cell must not fork. */
struct ForkSource
{
    std::shared_ptr<const void> programOwner;
    bool replayed = false;
};

/** The timing run itself, identical for every source kind. */
PhaseResult
runTimedPhase(const SimConfig &cfg, wl::TraceSource &src, u32 phase,
              u64 sample_every, std::vector<ShadowArm> *shadows,
              const ForkSource &forks = {})
{
    core::Pipeline pipe(cfg.core, cfg.mech, src,
                        cfg.seed ^ (0x9e37 * (phase + 1)));
    if (shadows)
        for (const ShadowArm &arm : *shadows)
            pipe.attachShadow(arm.mech, arm.engines);
    // A sampled cell never forks: a fork would need the host's rows up
    // to the snapshot.
    bool may_fork = shadows && !shadows->empty() && forks.programOwner &&
                    sample_every == 0;
    if (may_fork)
        pipe.requestSnapshot();
    pipe.run(cfg.warmupInsts);
    std::unique_ptr<core::Pipeline> snapshot = pipe.takeSnapshot();
    bool in_warmup = snapshot != nullptr;
    pipe.resetStats();
    // Sampling covers exactly the measurement run: attach after the
    // stats reset so cycle 0 of the series is cycle 0 of measurement.
    core::StatSampler sampler(sample_every ? sample_every : 1);
    if (sample_every)
        pipe.attachSampler(&sampler);
    pipe.run(cfg.measureInsts);
    if (sample_every)
        pipe.finishSampling();
    if (!snapshot)
        snapshot = pipe.takeSnapshot();

    PhaseResult pr = collectResult(pipe);
    if (sample_every)
        pr.samples = sampler.rows();
    std::shared_ptr<ForkPoint> fork;
    if (snapshot)
        fork = std::make_shared<ForkPoint>(std::move(snapshot), in_warmup,
                                           forks.replayed,
                                           forks.programOwner);
    size_t forking = 0;
    for (size_t i = 0; shadows && i < shadows->size(); ++i) {
        if (pipe.shadowRetired(i)) {
            // Acted after the snapshot: its cell resumes from there.
            if (fork && fork->shadowLive(i)) {
                (*shadows)[i].fork = fork;
                (*shadows)[i].forkShadow = i;
                ++forking;
            }
            continue;
        }
        // The later arm's cell: this run, plus what its shadow counted.
        PhaseResult arm;
        arm.stats = pipe.shadowArmStats(i);
        arm.ipc = arm.stats.ipc();
        auto value = [&](const StatCounter &c) {
            return pipe.shadowArmValue(i, c);
        };
        for (const core::SpeculationEngine *eng : pipe.engines())
            exportEngine(arm, *eng, value);
        for (const core::SpeculationEngine *eng : pipe.shadowEngines(i))
            exportEngine(arm, *eng, value);
        (*shadows)[i].result = std::move(arm);
    }
    if (fork)
        fork->setForks(forking);
    return pr;
}

} // namespace

ForkPoint::ForkPoint(std::unique_ptr<core::Pipeline> snapshot,
                     bool in_warmup, bool replayed,
                     std::shared_ptr<const void> program_owner)
    : snap(std::move(snapshot)), inWarmup(in_warmup), fromReplay(replayed),
      at(snap->committedCount()), owner(std::move(program_owner))
{
}

ForkPoint::~ForkPoint() = default;

bool
ForkPoint::shadowLive(size_t i) const
{
    return !snap->shadowRetired(i);
}

void
ForkPoint::setForks(size_t n)
{
    std::lock_guard<std::mutex> lk(mtx);
    forksLeft = n;
}

PhaseResult
ForkPoint::run(const SimConfig &cfg, size_t shadow)
{
    std::unique_ptr<core::Pipeline> pipe;
    {
        // The last fork takes the snapshot itself.
        std::lock_guard<std::mutex> lk(mtx);
        if (!snap)
            rsep_panic("fork point: more forks than its shadows");
        if (forksLeft > 0)
            --forksLeft;
        pipe = forksLeft == 0
            ? std::move(snap)
            : std::make_unique<core::Pipeline>(*snap);
    }
    pipe->promoteShadow(shadow);
    pipe->resume();
    if (inWarmup) {
        pipe->resetStats();
        pipe->run(cfg.measureInsts);
    }
    return collectResult(*pipe);
}

ReplayTrace
loadReplayTrace(const std::string &dir, const std::string &bench_name,
                u32 phase, const wl::WorkloadSpec &spec)
{
    ReplayTrace rt;
    rt.path = wl::tracePath(dir, bench_name, phase);
    std::error_code ec;
    if (!std::filesystem::exists(rt.path, ec))
        return rt;
    // One decode per (path, checksum) process-wide: every arm of a
    // sweep replaying this cell shares the same immutable DecodedTrace
    // snapshot out of the cache.
    auto tload = std::chrono::steady_clock::now();
    wl::DecodedTraceCache::Result cached = wl::traceCache().get(rt.path);
    rt.loadMicros = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - tload)
            .count());
    rt.decodeHit = cached.hit;
    if (!cached.ok()) {
        rt.error = cached.error + " (re-record the trace)";
        return rt;
    }
    std::string mismatch = wl::traceIdentityMismatch(
        cached.trace->header, bench_name, phase, wl::workloadHash(spec));
    if (!mismatch.empty()) {
        rt.error = rt.path + ": " + mismatch;
        return rt;
    }
    rt.trace = std::move(cached.trace);
    return rt;
}

PhaseResult
runPhase(const SimConfig &cfg, const std::string &bench_name, u32 phase,
         const TraceIoOptions &trace_io, u64 sample_every,
         const InitialStateSource &initial, std::vector<ShadowArm> *shadows)
{
    auto t0 = std::chrono::steady_clock::now();
    auto finish = [&](PhaseResult pr) {
        pr.wallMicros = static_cast<u64>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        return pr;
    };

    // ---- replay path: no emulator, no memory init ----
    if (!trace_io.replayDir.empty()) {
        std::optional<wl::WorkloadSpec> spec =
            wl::findWorkloadSpec(bench_name);
        if (!spec)
            rsep_fatal("replay: unknown workload '%s' (scenario-defined "
                       "workloads must be registered before the run)",
                       bench_name.c_str());
        ReplayTrace rt =
            loadReplayTrace(trace_io.replayDir, bench_name, phase, *spec);
        if (!rt.trace && rt.error.empty()) {
            if (trace_io.recordDir.empty())
                rsep_fatal("replay: %s: no trace recorded for (%s, phase "
                           "%u); record it first with --record-trace",
                           rt.path.c_str(), bench_name.c_str(), phase);
            // Fall through: live-emulate (and record) the missing cell.
        } else {
            if (!rt.trace)
                rsep_fatal("replay: %s", rt.error.c_str());
            auto w = std::make_shared<const wl::Workload>(
                wl::buildWorkload(*spec));
            wl::ReplayTraceSource src(rt.trace, w->program, rt.path);
            PhaseResult pr = runTimedPhase(cfg, src, phase, sample_every,
                                           shadows, {w, true});
            pr.replayed = true;
            pr.traceLoadMicros = rt.loadMicros;
            pr.traceDecodeHit = rt.decodeHit;
            return finish(std::move(pr));
        }
    }

    // ---- live-emulation path (optionally recording) ----
    std::shared_ptr<const InitialState> shared;
    std::shared_ptr<wl::Workload> own;
    if (initial)
        shared = initial();
    else
        own = std::make_shared<wl::Workload>(wl::makeWorkload(bench_name));
    wl::Emulator emu(shared ? shared->workload.program : own->program);
    if (shared) {
        emu.restore(shared->image);
    } else {
        emu.resetArchState();
        own->init(emu, phase);
    }

    if (!trace_io.recordDir.empty() && trace_io.writeTrace) {
        wl::RecordingTraceSource rec(emu);
        PhaseResult pr =
            runTimedPhase(cfg, rec, phase, sample_every, shadows);
        rec.recordSlack(traceRecordSlack);
        wl::TraceHeader header;
        header.workload = bench_name;
        std::optional<wl::WorkloadSpec> spec =
            wl::findWorkloadSpec(bench_name);
        header.workloadHash =
            spec ? wl::workloadHash(*spec) : std::string(16, '0');
        header.phase = phase;
        std::string path =
            wl::tracePath(trace_io.recordDir, bench_name, phase);
        std::string err;
        if (!rec.write(path, header, &err))
            rsep_warn("record-trace: %s", err.c_str());
        return finish(std::move(pr));
    }

    std::shared_ptr<const void> owner =
        shared ? std::shared_ptr<const void>(shared) : own;
    return finish(
        runTimedPhase(cfg, emu, phase, sample_every, shadows, {owner}));
}

void
accountPhaseTiming(RunTiming &timing, const PhaseResult &pr)
{
    timing.wallMicros += pr.wallMicros;
    if (pr.fromCache)
        ++timing.cacheHits;
    else
        ++timing.cellsRun;
    timing.traceLoadMicros += pr.traceLoadMicros;
    if (!pr.forkOf.empty())
        ++timing.cellsForked;
    if (pr.replayed) {
        if (pr.traceDecodeHit)
            ++timing.traceDecodeHits;
        else
            ++timing.traceDecodeMisses;
    }
}

} // namespace rsep::sim
