#include "sim/cell_alias.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <tuple>

#include "common/logging.hh"
#include "core/engines/move_elim_engine.hh"
#include "core/engines/zero_pred_engine.hh"
#include "sim/scenario.hh"
#include "wl/emulator.hh"

namespace rsep::sim
{

bool
hasEliminableMove(const isa::Program &prog)
{
    for (size_t i = 0; i < prog.size(); ++i)
        if (prog.at(i).isEliminableMove())
            return true;
    return false;
}

void
scanZeroRun(equality::ZeroRunScan &scan, const isa::Program &prog,
            const wl::DynRecord &rec)
{
    // The engine looks up producers only (InflightInst::producesReg).
    const isa::StaticInst &si = prog.at(rec.staticIdx);
    if (!si.writesReg())
        return;
    Addr pc = isa::Program::pcOf(rec.staticIdx);
    if (rec.result == 0)
        scan.zero(pc);
    else if (!si.isZeroIdiom() && !si.isEliminableMove())
        // Zero-idiom and move elimination sit before zero prediction in
        // the rename chain: what they claim skips the predictor, so
        // only the other producers certainly train it.
        scan.nonzero(pc);
}

namespace
{

/** The engines an arm may switch off where they are proven silent,
 *  or where a shadow of them never acts: the bits of a mask. */
enum SilenceableEngine : unsigned {
    silentMoveElim = 1,
    silentZeroPred = 2,
    silentRsep = 4,
    silentDvtage = 8,
};
/** The engines a shadow can run. */
constexpr unsigned shadowEngines = silentZeroPred | silentRsep | silentDvtage;
/** The engines only a shadow can show silent. */
constexpr unsigned shadowOnly = silentRsep | silentDvtage;

/** @p cfg with the engines in @p mask switched off. Switching RSEP or
 *  D-VTAGE off also sets the `[rsep]` fields nothing else in the arm
 *  reads, or the `[vp]` section, to @p ref's, the reference's. */
SimConfig
withoutEngines(SimConfig cfg, unsigned mask, const core::MechConfig &ref)
{
    core::MechConfig &m = cfg.mech;
    if (mask & silentMoveElim)
        m.moveElim = false;
    if (mask & silentZeroPred)
        m.zeroPred = false;
    if (mask & silentDvtage) {
        m.valuePred = false;
        m.vp = ref.vp;
    }
    if (mask & silentRsep) {
        equality::RsepConfig own = m.rsep;
        m.equalityPred = false;
        m.rsep = ref.rsep;
        // What the pipeline and the other engines still read: the
        // ISRB that move elimination and the oracle share through,
        // the validation policy and counter kind of zero prediction,
        // and the oracle's window.
        if (m.moveElim || m.oracleEq) {
            m.rsep.isrbEntries = own.isrbEntries;
            m.rsep.isrbCounterBits = own.isrbCounterBits;
        }
        if (m.zeroPred) {
            m.rsep.validation = own.validation;
            m.rsep.confKind = own.confKind;
        }
        if (m.oracleEq)
            m.rsep.historyDepth = own.historyDepth;
    }
    return cfg;
}

/** True when cell (@p bench_name, *)'s program holds an eliminable
 *  move: from the initial state when the cell runs live. */
bool
programHasMoves(const std::string &bench_name,
                const TraceIoOptions &trace_io,
                const InitialStateSource &initial)
{
    if (trace_io.replayDir.empty() && initial)
        return hasEliminableMove(initial()->workload.program);
    return hasEliminableMove(wl::makeWorkload(bench_name).program);
}

/** The committed records a cell of @p cfg can train on: its warm-up
 *  and its measurement each overshoot their target by less than one
 *  commit group. */
u64
committedBound(const SimConfig &cfg)
{
    return cfg.warmupInsts + cfg.measureInsts + 2 * cfg.core.commitWidth;
}

/**
 * Which of the @p wanted engines of @p cfg never act on cell
 * (@p bench_name, @p phase). The stream is the cell's recorded trace
 * when @p trace_io replays, otherwise the emulation from @p initial
 * (or from a fresh init when it is empty). An engine whose proof needs
 * a stream that cannot be read is not proven.
 */
SilenceProof
proveSilent(const SimConfig &cfg, unsigned wanted,
            const std::string &bench_name, u32 phase,
            const TraceIoOptions &trace_io,
            const InitialStateSource &initial)
{
    // An FPC counter draws from the pipeline's Rng, which RSEP's
    // training shares: switching it off would move RSEP's draws.
    ConfidenceKind kind = cfg.mech.rsep.confKind; // Pipeline::zeroPredEng's.
    if (kind != ConfidenceKind::Deterministic8 && cfg.mech.equalityPred)
        wanted &= ~unsigned{silentZeroPred};

    SilenceProof proof;
    if (!wanted)
        return proof;
    equality::ZeroRunScan scan;
    u64 bound = committedBound(cfg);
    auto proveMoves = [&](const isa::Program &prog) {
        if ((wanted & silentMoveElim) && !hasEliminableMove(prog))
            proof.silent |= silentMoveElim;
    };

    if (!trace_io.replayDir.empty()) {
        std::optional<wl::WorkloadSpec> spec =
            wl::findWorkloadSpec(bench_name);
        if (!spec)
            return proof;
        wl::Workload w = wl::buildWorkload(*spec);
        proveMoves(w.program);
        if (!(wanted & silentZeroPred))
            return proof;
        ReplayTrace rt =
            loadReplayTrace(trace_io.replayDir, bench_name, phase, *spec);
        proof.traceLoadMicros = rt.loadMicros;
        if (!rt.trace)
            return proof;
        proof.replayed = true;
        proof.traceDecodeHit = rt.decodeHit;
        // A trace shorter than the bound holds every record the cell
        // can commit.
        u64 n = std::min<u64>(bound, rt.trace->size());
        wl::TraceCursor cursor(rt.trace->payload);
        wl::DynRecord rec;
        for (u64 i = 0; i < n; ++i) {
            if (!cursor.next(rec) || rec.staticIdx >= w.program.size())
                return proof;
            scanZeroRun(scan, w.program, rec);
        }
    } else {
        std::shared_ptr<const InitialState> state =
            initial ? initial()
                    : std::make_shared<const InitialState>(
                          wl::makeWorkload(bench_name), phase);
        const isa::Program &prog = state->workload.program;
        proveMoves(prog);
        if (!(wanted & silentZeroPred))
            return proof;
        wl::Emulator emu(prog);
        emu.restore(state->image);
        for (u64 i = 0; i < bound; ++i)
            scanZeroRun(scan, prog, emu.step());
    }
    if (scan.neverPredicts(kind))
        proof.silent |= silentZeroPred;
    return proof;
}

/** An engine switched off as silent, built only for its stat names. */
std::unique_ptr<core::SpeculationEngine>
silentEngine(const std::string &name, const core::MechConfig &mech,
             core::PipelineStats &st)
{
    if (name == "move-elim")
        return std::make_unique<core::MoveElimEngine>(st);
    if (name == "zero-pred")
        return std::make_unique<core::ZeroPredEngine>(
            st, equality::ZeroPredictor::defaultEntries,
            mech.rsep.confKind);
    if (name == "rsep" || name == "dvtage")
        rsep_panic("engine '%s' is switched off only by a shadow, which "
                   "exports its counters", name.c_str());
    rsep_panic("engine '%s' cannot be switched off", name.c_str());
}

/**
 * The result a cell of @p cfg would have simulated, taken from @p ref,
 * the cell of an earlier arm that differs from @p cfg only by engines
 * that never act (with the counters of the shadow, if one ran): the
 * pipeline counters are copied, and the engine counters follow
 * @p cfg's registration order with @p ref's value where @p ref has
 * that engine and 0 otherwise. The caller copies the samples.
 */
PhaseResult
aliasResult(const PhaseResult &ref, const SimConfig &cfg)
{
    PhaseResult pr;
    pr.ipc = ref.ipc;
    pr.stats = ref.stats;
    core::PipelineStats unused;
    for (const std::string &engine : core::registeredEngineNames(cfg.mech)) {
        std::string prefix = "engine." + engine + ".";
        bool found = false;
        for (const auto &[name, value] : ref.engineStats)
            if (name.starts_with(prefix)) {
                pr.engineStats.emplace_back(name, value);
                found = true;
            }
        if (found)
            continue;
        std::unique_ptr<core::SpeculationEngine> silent =
            silentEngine(engine, cfg.mech, unused);
        for (const auto &entry : silent->statEntries())
            pr.engineStats.emplace_back(prefix + entry.name, 0);
    }
    return pr;
}

u64
microsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

CellAliases::CellAliases(const std::vector<SimConfig> &configs,
                         MatrixPlan &plan)
    : configs(configs), plan(plan), candidates(configs.size()),
      shadowCandidates(configs.size())
{
    // For every set of an arm's silenceable engines, the empty one
    // too, the first earlier arm whose hash is the arm's with that set
    // switched off.
    std::vector<char> fpcSharesRng(configs.size());
    for (size_t c = 0; c < configs.size(); ++c) {
        const core::MechConfig &m = configs[c].mech;
        // An FPC zero predictor draws from the pipeline Rng that RSEP's
        // training draws from, so a shadow of either alone would not
        // see the arm's draws.
        fpcSharesRng[c] = m.zeroPred && m.equalityPred &&
                          m.rsep.confKind != ConfidenceKind::Deterministic8;
        unsigned silenceable =
            (m.moveElim ? unsigned{silentMoveElim} : 0u) |
            (m.zeroPred ? unsigned{silentZeroPred} : 0u) |
            (m.equalityPred && !fpcSharesRng[c] ? unsigned{silentRsep}
                                                : 0u) |
            (m.valuePred ? unsigned{silentDvtage} : 0u);
        for (unsigned off = 0; off <= silenceable; ++off) {
            if (off & ~silenceable)
                continue;
            // Switching RSEP or D-VTAGE off takes each reference's
            // fields, so the hash depends on the reference.
            for (size_t r = 0; r < c; ++r) {
                std::string hash =
                    off ? configHash(withoutEngines(configs[c], off,
                                                    configs[r].mech))
                        : plan.configHashes[c];
                if (plan.configHashes[r] == hash) {
                    candidates[c].push_back({r, off});
                    break;
                }
            }
        }
        std::sort(candidates[c].begin(), candidates[c].end(),
                  [](const Candidate &x, const Candidate &y) {
                      return std::tuple(x.off != 0, x.ref,
                                        std::popcount(x.off)) <
                             std::tuple(y.off != 0, y.ref,
                                        std::popcount(y.off));
                  });
        phases = std::max<size_t>(phases, configs[c].checkpoints);
    }

    // The no-nesting rule: an arm that hosts a later arm's shadow is
    // never shadowed itself, so no host is skipped and no fork carries
    // shadows. From the last arm back, each arm that is no host keeps
    // the shadow candidates that switch off the fewest engines, those
    // switching off RSEP when some do (an arm with RSEP is usually
    // shadowed itself), and their references become hosts.
    std::vector<char> hostArm(configs.size());
    for (size_t c = configs.size(); c-- > 0;) {
        if (hostArm[c] || fpcSharesRng[c])
            continue;
        auto rank = [](const Candidate &a) {
            return std::pair(std::popcount(a.off & shadowEngines),
                             !(a.off & silentRsep));
        };
        std::vector<Candidate> &kept = shadowCandidates[c];
        for (const Candidate &a : candidates[c]) {
            if (!(a.off & shadowEngines))
                continue;
            if (!kept.empty() && rank(a) > rank(kept[0]))
                continue;
            if (!kept.empty() && rank(a) < rank(kept[0]))
                kept.clear();
            kept.push_back(a);
        }
        for (const Candidate &a : kept)
            hostArm[a.ref] = 1;
    }
    finished.resize(plan.rows.size() * configs.size() * phases);
    hostKnown.resize(finished.size());
}

CellAliases::Outcome
CellAliases::take(size_t b, size_t c, u32 p, const TraceIoOptions &trace_io,
                  const InitialStateSource &initial)
{
    Outcome out = takeCell(b, c, p, trace_io, initial);
    // A cell that is not simulated hosts nothing. (A cell with a
    // shadow has RSEP, so it is no shadow's host even when it
    // simulates after the shadow retired.)
    if (out != Simulate)
        hostsKnown(b, c, p);
    return out;
}

void
CellAliases::hostsKnown(size_t b, size_t c, u32 p)
{
    std::lock_guard<std::mutex> lk(mtx);
    hostKnown[slot(b, c, p)] = 1;
    hostsKnownCv.notify_all();
}

CellAliases::Outcome
CellAliases::takeCell(size_t b, size_t c, u32 p,
                      const TraceIoOptions &trace_io,
                      const InitialStateSource &initial)
{
    auto t0 = std::chrono::steady_clock::now();
    const MatrixRow &row = plan.rows[b];
    {
        // A cell starts after every earlier one (runCells), so each
        // possible host is running and about to choose.
        std::unique_lock<std::mutex> lk(mtx);
        for (const Candidate &a : shadowCandidates[c])
            if (p < row.byConfig[a.ref].phases.size())
                hostsKnownCv.wait(
                    lk, [&] { return hostKnown[slot(b, a.ref, p)] != 0; });
        auto it = shadowed.find(slot(b, c, p));
        if (it != shadowed.end()) {
            Shadowed &sh = it->second;
            if (sh.state == Shadowed::Running) {
                sh.waiting = true;
                sh.micros = microsSince(t0);
                return Hosted;
            }
            if (sh.state == Shadowed::Retired)
                return Simulate;
        }
    }
    if (takeHosted(b, c, p)) {
        PhaseResult &ph = plan.rows[b].byConfig[c].phases[p];
        ph.wallMicros = microsSince(t0);
        return Taken;
    }

    auto runsHere = [&](const Candidate &a) {
        // Only a shadow switches RSEP or D-VTAGE off (host()).
        return p < row.byConfig[a.ref].phases.size() &&
               !(a.off & shadowOnly);
    };
    const Candidate *pick = nullptr;
    unsigned wanted = 0;
    for (const Candidate &a : candidates[c])
        if (runsHere(a)) {
            if (a.off == 0) {
                pick = &a;
                break;
            }
            wanted |= a.off;
        }
    if (!pick && wanted) {
        // The proof its would-be host made, or one made now.
        std::optional<SilenceProof> proof;
        {
            std::lock_guard<std::mutex> lk(mtx);
            if (auto it = proofs.find(slot(b, c, p)); it != proofs.end()) {
                proof = it->second;
                t0 -= std::chrono::microseconds(proof->micros);
            }
        }
        if (!proof)
            proof = proveSilent(configs[c], wanted, row.benchmark, p,
                                trace_io, initial);
        for (const Candidate &a : candidates[c])
            if (runsHere(a) && (a.off & ~proof->silent) == 0) {
                pick = &a;
                break;
            }
        PhaseResult &ph = plan.rows[b].byConfig[c].phases[p];
        ph.replayed = proof->replayed;
        ph.traceDecodeHit = proof->traceDecodeHit;
        ph.traceLoadMicros = proof->traceLoadMicros;
    }
    if (!pick)
        return Simulate;

    Pending cell{b, c, pick->ref, p, 0};
    {
        std::lock_guard<std::mutex> lk(mtx);
        if (!finished[slot(b, cell.ref, p)]) {
            cell.micros = microsSince(t0);
            deferred.push_back(cell);
            return Deferred;
        }
    }
    fill(cell);
    plan.rows[b].byConfig[c].phases[p].wallMicros = microsSince(t0);
    return Taken;
}

CellAliases::Hosting
CellAliases::host(size_t b, size_t r, u32 p, const TraceIoOptions &trace_io,
                  const InitialStateSource &initial,
                  const std::function<bool(size_t c)> &cached)
{
    Hosting hosting;
    const MatrixRow &row = plan.rows[b];
    auto runsHere = [&](size_t k) { return p < row.byConfig[k].phases.size(); };
    std::optional<bool> moves; // the program holds an eliminable move.
    auto hasMoves = [&] {
        if (!moves)
            moves = programHasMoves(row.benchmark, trace_io, initial);
        return *moves;
    };
    for (size_t c = r + 1; c < configs.size(); ++c) {
        if (!runsHere(c))
            continue;
        const Candidate *pick = nullptr;
        for (const Candidate &a : shadowCandidates[c])
            if (a.ref == r) {
                pick = &a;
                break;
            }
        if (!pick || cached(c))
            continue;
        // A repeated config, or switching off move elimination alone
        // by its static proof, costs nothing: no shadow is needed.
        bool proven = false;
        for (const Candidate &a : candidates[c])
            if (runsHere(a.ref) &&
                (a.off == 0 || (a.off == silentMoveElim && !hasMoves())))
                proven = true;
        if (proven || ((pick->off & silentMoveElim) && hasMoves()))
            continue;
        // A shadow costs its host as much as a zero-prediction proof
        // costs the cell, so where the proof could stand for the
        // shadow it goes first, and the cell keeps its outcome.
        if (!(pick->off & shadowOnly)) {
            unsigned wanted = 0;
            for (const Candidate &a : candidates[c])
                if (runsHere(a.ref) && !(a.off & shadowOnly))
                    wanted |= a.off;
            auto t0 = std::chrono::steady_clock::now();
            SilenceProof proof = proveSilent(configs[c], wanted, row.benchmark,
                                             p, trace_io, initial);
            proof.micros = microsSince(t0);
            for (const Candidate &a : candidates[c])
                if (runsHere(a.ref) && !(a.off & shadowOnly) &&
                    (a.off & ~proof.silent) == 0)
                    proven = true;
            std::lock_guard<std::mutex> lk(mtx);
            proofs[slot(b, c, p)] = proof;
            if (proven)
                continue;
        }
        {
            std::lock_guard<std::mutex> lk(mtx);
            size_t s = slot(b, c, p);
            if (shadowed.count(s))
                continue;
            shadowed[s].host = r;
        }
        ShadowArm arm;
        arm.mech = configs[c].mech;
        if (pick->off & silentZeroPred)
            arm.engines.push_back("zero-pred");
        if (pick->off & silentRsep)
            arm.engines.push_back("rsep");
        if (pick->off & silentDvtage)
            arm.engines.push_back("dvtage");
        hosting.cells.push_back(c);
        hosting.arms.push_back(std::move(arm));
    }
    hostsKnown(b, r, p);
    return hosting;
}

std::vector<size_t>
CellAliases::hostDone(size_t b, u32 p, Hosting &hosting)
{
    std::vector<size_t> waiting;
    std::lock_guard<std::mutex> lk(mtx);
    for (size_t k = 0; k < hosting.cells.size(); ++k) {
        Shadowed &sh = shadowed.at(slot(b, hosting.cells[k], p));
        ShadowArm &arm = hosting.arms[k];
        sh.result = std::move(arm.result);
        sh.state = sh.result ? Shadowed::Survived : Shadowed::Retired;
        sh.fork = std::move(arm.fork);
        sh.forkShadow = arm.forkShadow;
        shadowsRetired += !sh.result;
        if (sh.waiting)
            waiting.push_back(hosting.cells[k]);
    }
    return waiting;
}

bool
CellAliases::takeHosted(size_t b, size_t c, u32 p)
{
    auto t0 = std::chrono::steady_clock::now();
    size_t host_arm;
    u64 micros;
    std::optional<PhaseResult> arm;
    {
        std::lock_guard<std::mutex> lk(mtx);
        auto it = shadowed.find(slot(b, c, p));
        if (it == shadowed.end() || it->second.state != Shadowed::Survived)
            return false;
        host_arm = it->second.host;
        micros = it->second.micros;
        arm = std::move(it->second.result);
    }
    fillFromShadow(b, c, p, host_arm, std::move(*arm));
    plan.rows[b].byConfig[c].phases[p].wallMicros = micros + microsSince(t0);
    return true;
}

bool
CellAliases::fork(size_t b, size_t c, u32 p)
{
    auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<ForkPoint> point;
    size_t shadow, host_arm;
    u64 micros;
    {
        std::lock_guard<std::mutex> lk(mtx);
        auto it = shadowed.find(slot(b, c, p));
        if (it == shadowed.end() || !it->second.fork)
            return false;
        point = std::move(it->second.fork);
        shadow = it->second.forkShadow;
        host_arm = it->second.host;
        micros = it->second.micros;
        ++forks;
        forkPermille += point->committedAt() * 1000 /
                        (configs[c].warmupInsts + configs[c].measureInsts);
    }
    PhaseResult pr = aliasResult(point->run(configs[c], shadow), configs[c]);
    // It replays the host's decoded trace, if the host replayed.
    pr.replayed = pr.traceDecodeHit = point->replayed();
    pr.forkOf = configs[host_arm].label;
    pr.forkAt = point->committedAt();
    pr.wallMicros = micros + microsSince(t0);
    plan.rows[b].byConfig[c].phases[p] = std::move(pr);
    return true;
}

ShadowCounts
CellAliases::shadowCounts()
{
    std::lock_guard<std::mutex> lk(mtx);
    return {shadowed.size(), shadowsRetired, forks,
            forks ? static_cast<double>(forkPermille) /
                        (1000.0 * static_cast<double>(forks))
                  : 0.0};
}

void
CellAliases::finish(size_t b, size_t c, u32 p)
{
    std::lock_guard<std::mutex> lk(mtx);
    finished[slot(b, c, p)] = 1;
    hostKnown[slot(b, c, p)] = 1;
    hostsKnownCv.notify_all();
}

void
CellAliases::takeDeferred(
    const std::function<void(size_t b, size_t c, u32 p)> &done)
{
    std::sort(deferred.begin(), deferred.end(),
              [](const Pending &x, const Pending &y) {
                  return std::tuple(x.b, x.p, x.c) <
                         std::tuple(y.b, y.p, y.c);
              });
    for (const Pending &cell : deferred) {
        auto t0 = std::chrono::steady_clock::now();
        fill(cell);
        plan.rows[cell.b].byConfig[cell.c].phases[cell.p].wallMicros =
            cell.micros + microsSince(t0);
        done(cell.b, cell.c, cell.p);
    }
    deferred.clear();
}

void
CellAliases::fillFromShadow(size_t b, size_t c, u32 p, size_t host,
                            PhaseResult arm)
{
    const PhaseResult &ref = plan.rows[b].byConfig[host].phases[p];
    PhaseResult pr = aliasResult(arm, configs[c]);
    pr.samples = ref.samples;
    pr.aliasOf = configs[host].label;
    pr.aliasByShadow = true;
    // The shadow replayed the host's trace.
    pr.replayed = pr.traceDecodeHit = ref.replayed;
    plan.rows[b].byConfig[c].phases[p] = std::move(pr);
}

void
CellAliases::fill(const Pending &cell)
{
    PhaseResult &ph = plan.rows[cell.b].byConfig[cell.c].phases[cell.p];
    const PhaseResult &ref =
        plan.rows[cell.b].byConfig[cell.ref].phases[cell.p];
    PhaseResult pr = aliasResult(ref, configs[cell.c]);
    pr.samples = ref.samples;
    pr.aliasOf = configs[cell.ref].label;
    pr.replayed = ph.replayed;
    pr.traceDecodeHit = ph.traceDecodeHit;
    pr.traceLoadMicros = ph.traceLoadMicros;
    ph = std::move(pr);
}

} // namespace rsep::sim
