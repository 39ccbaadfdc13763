#include "core/pipeline.hh"

#include <algorithm>
#include <cassert>

#include "common/logging.hh"
#include "core/engines/dvtage_engine.hh"
#include "core/engines/move_elim_engine.hh"
#include "core/engines/oracle_eq_engine.hh"
#include "core/engines/rsep_engine.hh"
#include "core/engines/zero_idiom_engine.hh"
#include "core/engines/zero_pred_engine.hh"

namespace rsep::core
{

using isa::OpClass;

namespace
{

/** The rename chain: the engines in registration (dispatch) order. */
enum ChainPosition : unsigned {
    chainZeroIdiom,
    chainMoveElim,
    chainZeroPred,
    chainOracleEq,
    chainRsep,
    chainDvtage,
    chainLength,
};
static_assert(chainLength == Pipeline::chainSlots);
constexpr const char *chainNames[chainLength] = {
    "zero-idiom", "move-elim", "zero-pred", "oracle-eq", "rsep", "dvtage"};

unsigned
chainRank(const std::string &engine)
{
    for (unsigned k = 0; k < chainLength; ++k)
        if (engine == chainNames[k])
            return k;
    rsep_panic("engine '%s' is not in the rename chain", engine.c_str());
}

/** The chain position of the engine whose claim is @p a; past the end
 *  when no engine claimed the instruction. */
unsigned
claimRank(RenameAction a)
{
    switch (a) {
      case RenameAction::ZeroIdiom: return chainZeroIdiom;
      case RenameAction::MoveElim: return chainMoveElim;
      case RenameAction::ZeroPredicted: return chainZeroPred;
      case RenameAction::OracleShared: return chainOracleEq;
      case RenameAction::RsepShared: return chainRsep;
      case RenameAction::ValuePredicted: return chainDvtage;
      case RenameAction::None: break;
    }
    return chainLength;
}

/** Every counter of @p s, in visitStats order. */
std::vector<StatCounter *>
countersOf(PipelineStats &s)
{
    std::vector<StatCounter *> out;
    visitStats(s, [&](const char *, StatCounter &c) { out.push_back(&c); });
    return out;
}

/** Add every counter and histogram bucket of @p from to @p to. */
void
addStats(PipelineStats &to, PipelineStats &from)
{
    std::vector<StatCounter *> dst = countersOf(to), src = countersOf(from);
    for (size_t k = 0; k < dst.size(); ++k)
        *dst[k] += src[k]->value();
    const StatHistogram &hist = from.commitGroupProducers;
    for (size_t b = 0; b < hist.buckets(); ++b)
        to.commitGroupProducers.sample(b, hist.bucket(b));
}

/** Put @p e, an engine of @p slot's type or null, in @p slot. */
template <class E>
void
adopt(std::unique_ptr<E> &slot, std::unique_ptr<SpeculationEngine> e)
{
    slot.reset(static_cast<E *>(e.release()));
}

/** A copy of @p e (an engine, or null) counting into @p st. */
template <class E>
std::unique_ptr<E>
cloneEngine(const std::unique_ptr<E> &e, PipelineStats &st)
{
    std::unique_ptr<E> copy;
    if (e)
        adopt(copy, e->clone(st));
    return copy;
}

} // namespace

/** A later arm's engines, run beside the host pipeline. */
struct Pipeline::Shadow
{
    MechConfig mech; ///< the arm's.
    PipelineStats st;
    Rng rng;
    Rng rngAtAttach; ///< rng before its engines drew from it.
    std::vector<std::unique_ptr<SpeculationEngine>> owned;
    std::vector<SpeculationEngine *> engines; ///< registration order.
    std::vector<unsigned> ranks;              ///< chain positions.
    std::vector<SpeculationEngine *> cycleEngines; ///< wantsCycleHooks().
    bool retired = false;
    Cycle actCycle = 0; ///< when retired: the cycle of the first act.

    /** A copy whose engines count into its own statistics (a retired
     *  shadow has none left). */
    std::unique_ptr<Shadow>
    copy() const
    {
        auto s = std::make_unique<Shadow>();
        s->mech = mech;
        s->st = st;
        s->rng = rng;
        s->rngAtAttach = rngAtAttach;
        s->retired = retired;
        s->actCycle = actCycle;
        s->ranks = ranks;
        for (const auto &e : owned) {
            s->owned.push_back(e->clone(s->st));
            s->engines.push_back(s->owned.back().get());
            if (e->wantsCycleHooks())
                s->cycleEngines.push_back(s->engines.back());
        }
        return s;
    }
};

Pipeline::Pipeline(const CoreParams &core_params, const MechConfig &mech_cfg,
                   wl::TraceSource &src, u64 seed)
    : cp(core_params), mech(mech_cfg), engineSeed(seed), emul(&src),
      trace(src), hier(mem::HierarchyParams{}),
      bru(pred::TageParams{}, seed ^ 0x1111),
      isrbUnit(mech.rsep.isrbEntries, mech.rsep.isrbCounterBits),
      rename(core_params), fuPool(core_params),
      pregReady(core_params.intPregs + core_params.fpPregs, 0),
      memIdx(4 * (core_params.lqSize + core_params.sqSize)),
      rng(seed ^ 0x4444)
{
    reserveWindow();
    pregWaiterHead.assign(pregReady.size(), invalidWaiter);
    idealVal = mech.rsep.validation == equality::ValidationPolicy::Ideal;
    // Registration order is dispatch order: the rename-stage priority
    // chain of the paper (Fig. 3), non-speculative mechanisms first.
    // Speculative engines are built only when registered (or when an
    // accessor below asks for one).
    zeroIdiomEngine = std::make_unique<ZeroIdiomEngine>(st);
    moveElimEngine = std::make_unique<MoveElimEngine>(st);
    if (mech.zeroPred)
        zeroPredEng();
    if (mech.oracleEq) {
        // The oracle's pair-visibility window is rsep.history_depth
        // *producers* — the FIFO's unit — so "rsep vs its oracle"
        // compares like for like (the scan is also ROB-bounded; the
        // registered rsep-oracle arm's 1024 exceeds any ROB).
        oracleEqEngine =
            std::make_unique<OracleEqEngine>(st, mech.rsep.historyDepth);
    }
    if (mech.equalityPred)
        rsepEng();
    if (mech.valuePred)
        dvtageEng();
    // Every engine built so far is registered, but for the two always
    // built.
    relist([&](const SpeculationEngine *e) {
        return (e != zeroIdiomEngine.get() || mech.zeroIdiomElim) &&
               (e != moveElimEngine.get() || mech.moveElim);
    });

    // Rename-side folded history: the engines doing history-indexed
    // lookups at rename register their fold geometry here; one replica
    // serves all of them (slots dedup across predictors).
    if (mech.equalityPred)
        rsepEngine->distancePredictor().registerFolds(renameFoldSpec);
    if (mech.valuePred)
        dvtageEngine->predictor().registerFolds(renameFoldSpec);
    renameHistActive = mech.equalityPred || mech.valuePred;
    renameFolds_.bind(&renameFoldSpec);

    // Oracle equality: value -> in-window-producer index replacing the
    // per-rename ROB walk.
    if (mech.oracleEq)
        valIdx = std::make_unique<ValueEqIndex>(2 * cp.robSize);

    // The hardwired zero register and all initial architectural
    // mappings hold value 0 and are ready from cycle 0.
    for (unsigned p = 0; p < pregReady.size(); ++p)
        pregReady[p] = 0;
    if (mech.fig1Probe) {
        // The probe's value-liveness bookkeeping is only allocated (and
        // only maintained) when the probe runs; every other arm pays
        // nothing for it on the commit path.
        fig1 = std::make_unique<Fig1State>();
        fig1->pregValue.assign(pregReady.size(), 0);
        // Initial mappings (1 per arch reg + zero reg) all hold 0.
        fig1->liveValues[0] = isa::numArchRegs;
    }
}

Pipeline::Pipeline(const Pipeline &o)
    : elideCache(o.elideCache), cp(o.cp), mech(o.mech),
      engineSeed(o.engineSeed), emul(nullptr), ownedSrc(o.emul->clone()),
      trace(o.trace), hier(o.hier), bru(o.bru),
      renameFoldSpec(o.renameFoldSpec),
      renameHist_(o.renameHist_), renameFolds_(o.renameFolds_),
      renameHistActive(o.renameHistActive), storeSets(o.storeSets),
      isrbUnit(o.isrbUnit), rename(o.rename), fuPool(o.fuPool),
      window(o.window), nRenamed(o.nRenamed), pregReady(o.pregReady),
      waiters(o.waiters), pregWaiterHead(o.pregWaiterHead),
      wakeHeap(o.wakeHeap), readyList(o.readyList),
      pendingValidation(o.pendingValidation), memIdx(o.memIdx),
      valIdx(o.valIdx ? std::make_unique<ValueEqIndex>(*o.valIdx)
                      : nullptr),
      valOrdNext(o.valOrdNext), deferredReady(o.deferredReady),
      deferredPos(o.deferredPos), inIssueScan(o.inIssueScan),
      schedCounter(o.schedCounter), idealVal(o.idealVal),
      runTarget(o.runTarget), atRenameStage(o.atRenameStage),
      fig1(o.fig1 ? std::make_unique<Fig1State>(*o.fig1) : nullptr),
      iqUsed(o.iqUsed), lqUsed(o.lqUsed), sqUsed(o.sqUsed),
      fetchIdx(o.fetchIdx), cycle(o.cycle),
      fetchResumeCycle(o.fetchResumeCycle),
      fetchWaitingExec(o.fetchWaitingExec), committed(o.committed),
      lastFetchLine(o.lastFetchLine), rng(o.rng), st(o.st)
{
    if (!ownedSrc)
        rsep_panic("pipeline copy: the trace source cannot be copied");
    emul = ownedSrc.get();
    trace.rebind(*emul);
    zeroIdiomEngine = cloneEngine(o.zeroIdiomEngine, st);
    moveElimEngine = cloneEngine(o.moveElimEngine, st);
    zeroPredEngine = cloneEngine(o.zeroPredEngine, st);
    oracleEqEngine = cloneEngine(o.oracleEqEngine, st);
    rsepEngine = cloneEngine(o.rsepEngine, st);
    dvtageEngine = cloneEngine(o.dvtageEngine, st);
    std::array<SpeculationEngine *, chainLength> mine = engineSlots(),
                                                 theirs = o.engineSlots();
    relist([&](const SpeculationEngine *e) {
        size_t k = static_cast<size_t>(
            std::find(mine.begin(), mine.end(), e) - mine.begin());
        return std::find(o.active.begin(), o.active.end(), theirs[k]) !=
               o.active.end();
    });
    for (const auto &sh : o.shadows) {
        shadows.push_back(sh->copy());
        if (!shadows.back()->retired)
            liveShadows.push_back(shadows.back().get());
    }
}

Pipeline::~Pipeline() = default;

std::array<SpeculationEngine *, Pipeline::chainSlots>
Pipeline::engineSlots() const
{
    // Chain (registration) order.
    return {zeroIdiomEngine.get(), moveElimEngine.get(),
            zeroPredEngine.get(),  oracleEqEngine.get(),
            rsepEngine.get(),      dvtageEngine.get()};
}

void
Pipeline::relist(
    const std::function<bool(const SpeculationEngine *)> &registered)
{
    active.clear();
    issueSubscribers.clear();
    cycleSubscribers.clear();
    for (SpeculationEngine *e : engineSlots())
        if (e && registered(e)) {
            active.push_back(e);
            if (e->wantsIssueHook())
                issueSubscribers.push_back(e);
            if (e->wantsCycleHooks())
                cycleSubscribers.push_back(e);
        }
    elideCache = {};
}

std::vector<std::string>
registeredEngineNames(const MechConfig &mech)
{
    // The constructor's order above.
    std::vector<std::string> names;
    if (mech.zeroIdiomElim)
        names.push_back("zero-idiom");
    if (mech.moveElim)
        names.push_back("move-elim");
    if (mech.zeroPred)
        names.push_back("zero-pred");
    if (mech.oracleEq)
        names.push_back("oracle-eq");
    if (mech.equalityPred)
        names.push_back("rsep");
    if (mech.valuePred)
        names.push_back("dvtage");
    return names;
}

EngineContext
Pipeline::makeContext()
{
    return EngineContext{*this, st, mech, rng, cycle, committed};
}

SpeculationEngine *
Pipeline::engineByName(const std::string &name) const
{
    for (auto *e : active)
        if (e->name() == name)
            return e;
    return nullptr;
}

std::unique_ptr<ZeroPredEngine>
Pipeline::buildZeroPred(PipelineStats &s, const MechConfig &m,
                        bool shadow) const
{
    return std::make_unique<ZeroPredEngine>(
        s, equality::ZeroPredictor::defaultEntries, m.rsep.confKind, shadow);
}

std::unique_ptr<RsepEngine>
Pipeline::buildRsep(PipelineStats &s, const MechConfig &m, bool shadow) const
{
    return std::make_unique<RsepEngine>(s, m.rsep, cp.intPregs + cp.fpPregs,
                                        engineSeed ^ 0x3333, cp.robSize,
                                        shadow);
}

std::unique_ptr<DvtageEngine>
Pipeline::buildDvtage(PipelineStats &s, const MechConfig &m,
                      bool shadow) const
{
    return std::make_unique<DvtageEngine>(s, m.vp, engineSeed ^ 0x2222,
                                          cp.robSize, shadow);
}

ZeroPredEngine &
Pipeline::zeroPredEng()
{
    if (!zeroPredEngine)
        zeroPredEngine = buildZeroPred(st, mech, false);
    return *zeroPredEngine;
}

RsepEngine &
Pipeline::rsepEng()
{
    if (!rsepEngine)
        rsepEngine = buildRsep(st, mech, false);
    return *rsepEngine;
}

DvtageEngine &
Pipeline::dvtageEng()
{
    if (!dvtageEngine)
        dvtageEngine = buildDvtage(st, mech, false);
    return *dvtageEngine;
}

size_t
Pipeline::attachShadow(const MechConfig &arm,
                       const std::vector<std::string> &engines)
{
    assert(cycle == 0 && "a shadow attaches before the first run()");
    auto s = std::make_unique<Shadow>();
    s->mech = arm;
    s->rng = rng; // not drawn before the first run: the arm's seed.
    s->rngAtAttach = rng;
    std::vector<std::string> names = engines;
    std::sort(names.begin(), names.end(),
              [](const std::string &a, const std::string &b) {
                  return chainRank(a) < chainRank(b);
              });
    for (const std::string &name : names) {
        if (name == "zero-pred") {
            s->owned.push_back(buildZeroPred(s->st, arm, true));
        } else if (name == "rsep") {
            std::unique_ptr<RsepEngine> eng = buildRsep(s->st, arm, true);
            // Its lookups read the rename-side folds, like the arm's.
            eng->distancePredictor().registerFolds(renameFoldSpec);
            renameFolds_.bind(&renameFoldSpec);
            renameHistActive = true;
            s->owned.push_back(std::move(eng));
        } else if (name == "dvtage") {
            std::unique_ptr<DvtageEngine> eng = buildDvtage(s->st, arm, true);
            eng->predictor().registerFolds(renameFoldSpec);
            renameFolds_.bind(&renameFoldSpec);
            renameHistActive = true;
            s->owned.push_back(std::move(eng));
        } else {
            rsep_panic("engine '%s' cannot run as a shadow", name.c_str());
        }
        s->engines.push_back(s->owned.back().get());
        s->ranks.push_back(chainRank(name));
        if (s->engines.back()->wantsCycleHooks())
            s->cycleEngines.push_back(s->engines.back());
    }
    liveShadows.push_back(s.get());
    shadows.push_back(std::move(s));
    return shadows.size() - 1;
}

bool
Pipeline::shadowRetired(size_t i) const
{
    return shadows.at(i)->retired;
}

Cycle
Pipeline::shadowActCycle(size_t i) const
{
    return shadows.at(i)->actCycle;
}

const std::vector<SpeculationEngine *> &
Pipeline::shadowEngines(size_t i) const
{
    return shadows.at(i)->engines;
}

PipelineStats
Pipeline::shadowArmStats(size_t i)
{
    PipelineStats arm = st;
    addStats(arm, shadows.at(i)->st);
    return arm;
}

void
Pipeline::promoteShadow(size_t i)
{
    Shadow &s = *shadows.at(i);
    if (s.retired)
        rsep_panic("pipeline: shadow %zu acted and cannot be promoted", i);
    addStats(st, s.st);
    // An ISRB of another geometry has never held an entry: only its
    // sharers read it, and this pipeline's have the arm's geometry
    // (withoutEngines keeps it for them).
    if (s.mech.rsep.isrbEntries != mech.rsep.isrbEntries ||
        s.mech.rsep.isrbCounterBits != mech.rsep.isrbCounterBits) {
        if (isrbUnit.entriesInUse() != 0)
            rsep_panic("pipeline: promoting a shadow over a shared ISRB "
                       "of another geometry");
        isrbUnit = equality::Isrb(s.mech.rsep.isrbEntries,
                                  s.mech.rsep.isrbCounterBits);
    }
    mech = s.mech;
    idealVal = mech.rsep.validation == equality::ValidationPolicy::Ideal;
    // The engines of at most one side draw from an Rng (the Rng rule,
    // DESIGN.md §20): the arm's is the one that moved.
    if (!(s.rng == s.rngAtAttach))
        rng = s.rng;
    std::vector<const SpeculationEngine *> registered(active.begin(),
                                                      active.end());
    for (SpeculationEngine *e : s.engines) {
        std::unique_ptr<SpeculationEngine> copy = e->clone(st);
        copy->promote();
        registered.push_back(copy.get());
        if (e->name() == "zero-pred")
            adopt(zeroPredEngine, std::move(copy));
        else if (e->name() == "rsep")
            adopt(rsepEngine, std::move(copy));
        else
            adopt(dvtageEngine, std::move(copy));
    }
    relist([&](const SpeculationEngine *e) {
        return std::find(registered.begin(), registered.end(), e) !=
               registered.end();
    });
    shadows.clear();
    liveShadows.clear();
}

u64
Pipeline::shadowArmValue(size_t i, const StatCounter &c)
{
    // Engines of both pipelines may count into PipelineStats; there
    // the arm holds one counter where the two hold a part each.
    std::vector<StatCounter *> host = countersOf(st),
                               delta = countersOf(shadows.at(i)->st);
    for (size_t k = 0; k < host.size(); ++k)
        if (&c == host[k] || &c == delta[k])
            return host[k]->value() + delta[k]->value();
    return c.value(); // the engine's own.
}

template <class Hook>
void
Pipeline::shadowHook(Hook &&hook, bool squash_follows)
{
    bool retired = false;
    for (Shadow *s : liveShadows) {
        EngineContext ctx{*this, s->st, s->mech, s->rng, cycle, committed};
        ctx.squashFollowsCommit = squash_follows;
        for (size_t k = 0; k < s->engines.size() && !s->retired; ++k) {
            hook(*s->engines[k], ctx, s->ranks[k]);
            s->retired = s->engines[k]->retired();
        }
        if (s->retired) {
            s->actCycle = cycle;
            // It gets no hook again: only its act cycle is kept.
            s->owned.clear();
            s->engines.clear();
            s->cycleEngines.clear();
        }
        retired = retired || s->retired;
    }
    if (retired)
        std::erase_if(liveShadows, [](const Shadow *s) { return s->retired; });
}

template <class Hook>
void
Pipeline::shadowCycleHook(Hook &&hook)
{
    for (Shadow *s : liveShadows)
        for (SpeculationEngine *e : s->cycleEngines) {
            EngineContext ctx{*this, s->st, s->mech, s->rng, cycle, committed};
            hook(*e, ctx);
        }
}

equality::FifoHistory &
Pipeline::fifoHistory()
{
    return rsepEng().fifoHistory();
}

equality::DistancePredictor &
Pipeline::distancePredictor()
{
    return rsepEng().distancePredictor();
}

pred::Dvtage &
Pipeline::valuePredictor()
{
    return dvtageEng().predictor();
}

Cycle
Pipeline::opLatency(OpClass c) const
{
    switch (c) {
      case OpClass::IntAlu: return cp.intAluLat;
      case OpClass::IntMul: return cp.intMulLat;
      case OpClass::IntDiv: return cp.intDivLat;
      case OpClass::FpAlu: return cp.fpAluLat;
      case OpClass::FpMul: return cp.fpMulLat;
      case OpClass::FpDiv: return cp.fpDivLat;
      case OpClass::Branch: return cp.branchLat;
      case OpClass::Store: return cp.storeLat;
      default: return 1;
    }
}

void
Pipeline::resetStats()
{
    st = PipelineStats{};
    for (auto *e : active)
        e->resetStats();
    for (auto &s : shadows) {
        s->st = PipelineStats{};
        for (auto *e : s->engines)
            e->resetStats();
    }
}

void
Pipeline::attachSampler(StatSampler *s)
{
    sampler = s;
    if (sampler) {
        // Baseline snapshot: counters resetStats() does not zero (the
        // branch unit's) delta correctly from their current values.
        StatSample cum;
        captureSample(cum);
        sampler->start(cum);
    }
}

void
Pipeline::finishSampling()
{
    if (!sampler)
        return;
    StatSample cum;
    captureSample(cum);
    sampler->finish(cum, st.cycles.value());
    sampler = nullptr;
}

void
Pipeline::captureSample(StatSample &cum) const
{
    cum.committedInsts = st.committedInsts.value();
    cum.committedBranches = st.committedBranches.value();
    cum.committedLoads = st.committedLoads.value();
    cum.committedStores = st.committedStores.value();
    cum.branchMispredicts = bru.condMispredicts.value() +
                            bru.indirectMispredicts.value() +
                            bru.returnMispredicts.value();
    cum.commitSquashes = st.commitSquashes.value();
    cum.memOrderSquashes = st.memOrderSquashes.value();
    cum.robOcc = nRenamed;
    cum.frontendOcc = window.size() - nRenamed;
    // Each registered engine sums its role-tagged counters into its
    // slot. Only registered ones: an engine an accessor built shares
    // the PipelineStats counters but receives no hooks, so its slot
    // stays zero.
    const SpeculationEngine *slots[numSampleEngineSlots] = {
        zeroIdiomEngine.get(), moveElimEngine.get(), zeroPredEngine.get(),
        oracleEqEngine.get(),  rsepEngine.get(),     dvtageEngine.get(),
    };
    for (const SpeculationEngine *eng : active) {
        size_t e = static_cast<size_t>(
            std::find(std::begin(slots), std::end(slots), eng) - slots);
        for (const auto &entry : eng->statEntries()) {
            u64 v = entry.counter->value();
            if (entry.roles & sampleCoverage)
                cum.engCoverage[e] += v;
            if (entry.roles & sampleCorrect)
                cum.engCorrect[e] += v;
            if (entry.roles & sampleMispredict)
                cum.engMispredict[e] += v;
        }
    }
}

void
Pipeline::sampleTick()
{
    // One snapshot serves every boundary st.cycles crossed this
    // iteration: boundaries inside an idle fast-forward see the same
    // counter values single-stepping would have seen (nothing commits,
    // renames or squashes in a provably idle cycle), so the extra rows
    // carry zero deltas and only advance the time axis.
    StatSample cum;
    captureSample(cum);
    while (st.cycles.value() >= sampler->nextDue())
        sampler->record(cum);
}

InflightInst *
Pipeline::findBySeq(u64 seq)
{
    if (nRenamed == 0 || seq < window.front().traceIdx)
        return nullptr;
    u64 pos = seq - window.front().traceIdx;
    if (pos >= nRenamed)
        return nullptr;
    return &window[static_cast<size_t>(pos)];
}

// ---------------------------------------------------------------- fetch

void
Pipeline::doFetch()
{
    if (cycle < fetchResumeCycle || fetchWaitingExec)
        return;
    // Front-end backpressure.
    if (window.size() - nRenamed >= cp.frontendDepth * cp.fetchWidth + 16)
        return;

    unsigned taken_seen = 0;
    for (unsigned n = 0; n < cp.fetchWidth; ++n) {
        const wl::DynRecord &rec = trace.at(fetchIdx);
        const isa::StaticInst &si = emul->program().at(rec.staticIdx);
        Addr pc = isa::Program::pcOf(rec.staticIdx);

        // I-cache: fetching a new line may stall the group.
        Addr line = pc >> mem::lineShift;
        if (line != lastFetchLine) {
            Cycle ready = hier.ifetch(pc, cycle);
            lastFetchLine = line;
            if (ready > cycle + hier.params().l1i.latency) {
                fetchResumeCycle = ready;
                break;
            }
        }

        InflightInst &di = window.emplace_back();
        di.traceIdx = fetchIdx;
        di.si = &si;
        di.pc = pc;
        di.rec = rec;
        di.fetchCycle = cycle;
        di.histFetch = bru.history();
        di.rasSnap = bru.rasSnapshot();

        bool stop_after = false;
        if (si.isBranch()) {
            Addr target = isa::Program::pcOf(rec.nextIdx);
            bru.onFetchBranch(pc, si, rec.taken, target, di.bp);
            if (di.bp.redirect == pred::Redirect::Execute) {
                fetchWaitingExec = true;
                stop_after = true;
            } else if (di.bp.redirect == pred::Redirect::Decode) {
                fetchResumeCycle = cycle + cp.decodeRedirectPenalty;
                stop_after = true;
            } else if (rec.taken) {
                if (++taken_seen > cp.takenBranchesPerFetch)
                    stop_after = true; // cannot follow a 2nd taken branch.
                lastFetchLine = ~Addr{0}; // next fetch starts a new line.
            }
        }

        ++fetchIdx;
        if (stop_after)
            break;
    }
}

// --------------------------------------------------------------- rename

void
Pipeline::renameOne(InflightInst &di)
{
    const isa::StaticInst &si = *di.si;

    // Source renaming.
    di.numSrcs = 0;
    si.forEachSrc([&](ArchReg r) {
        di.srcPregs[di.numSrcs++] =
            r == isa::zeroReg ? zeroPreg : rename.map(r);
    });
    di.producesReg = si.writesReg();
    di.dispatchCycle = cycle;

    // Speculation engines: the rename priority chain (the first engine
    // to claim the destination wins; later engines still get to do
    // their predictor lookups), then the late pass for decisions that
    // depend on the final verdict.
    EngineContext ctx = makeContext();
    bool handled = false;
    for (auto *e : active)
        handled = e->atRename(di, handled, ctx) || handled;
    for (auto *e : active)
        e->atRenamePost(di, handled, ctx);
    if (!liveShadows.empty()) {
        // A shadow engine sees the claims of the engines ahead of it in
        // its arm's chain: this pipeline's, since shadows never claim.
        unsigned claimant = claimRank(di.action);
        shadowHook([&](SpeculationEngine &e, EngineContext &c,
                       unsigned rank) {
            e.atRename(di, claimant < rank, c);
        });
        shadowHook([&](SpeculationEngine &e, EngineContext &c, unsigned) {
            e.atRenamePost(di, handled, c);
        });
    }

    // Under the ideal validation policy (Fig. 4 / Fig. 6 "Ideal
    // Validation") checking costs nothing: no second issue, no IQ
    // retention, no producer dependency. Correctness verdicts are
    // still enforced at commit. This applies to every validation
    // consumer (zero prediction included), which is why it lives here
    // and not in an engine.
    if (mech.rsep.validation == equality::ValidationPolicy::Ideal)
        di.needsValidation = false;

    // Destination allocation + map update.
    if (di.producesReg) {
        di.oldPreg = rename.map(si.dst);
        if (di.action == RenameAction::None ||
            di.action == RenameAction::ValuePredicted) {
            di.destPreg = rename.allocate(si.dst);
            if (di.destPreg == invalidPhysReg)
                rsep_panic("free list empty despite rename gating");
            di.allocatedPreg = true;
            pregReady[di.destPreg] =
                di.action == RenameAction::ValuePredicted ? cycle
                                                          : invalidCycle;
        }
        rename.setMap(si.dst, di.destPreg);
    }

    // Memory dependences. The LFST is not rolled back on squashes
    // (Table I), so after a squash it can name a store slot that now
    // belongs to a *younger* instruction; such stale entries are
    // unusable (hardware would find the slot empty) and are dropped.
    SeqNum dep = si.isStore()
        ? storeSets.storeRename(di.pc, di.traceIdx + 1)
        : (si.isLoad() ? storeSets.loadRename(di.pc) : 0);
    if (dep && dep - 1 < di.traceIdx)
        di.storeDepSeq = dep;

    // Queues.
    if (si.opClass() == OpClass::Nop) {
        di.needsExec = false;
        di.completeCycle = cycle;
    }
    if (di.needsExec) {
        di.inIq = true;
        ++iqUsed;
    }
    if (si.isLoad())
        ++lqUsed;
    if (si.isStore()) {
        ++sqUsed;
        // In-window stores are indexed by doubleword from rename (the
        // STLF probe must see unissued conflicting stores too).
        memIdx.addStore(di.rec.effAddr & ~Addr{7}, di.traceIdx);
    }

    // Rename-side history replica: advance *after* this instruction's
    // engine hooks (which must see the history preceding it).
    if (renameHistActive && si.isBranch()) {
        if (si.isCondBranch()) {
            renameFolds_.insertDir(di.rec.taken, renameHist_.dir);
            renameHist_.insert(di.rec.taken, di.pc);
        } else {
            renameHist_.insertPath(isa::Program::pcOf(di.rec.nextIdx));
        }
    }

    // Oracle equality index: this instruction becomes discoverable as a
    // producer for younger renames.
    if (valIdx && di.producesReg && di.destPreg != invalidPhysReg)
        valIdx->add(di.rec.result, di.traceIdx, valOrdNext++);

    // Hand the instruction to the issue scheduler. Rename order is
    // seq order, so both lists stay age-sorted by construction.
    if (di.needsValidation)
        pendingValidation.push_back(di.traceIdx);
    if (di.needsExec)
        scheduleIssue(di);
}

bool
Pipeline::mayElideExecution(const isa::StaticInst &si) const
{
    ElideCacheEntry &slot =
        elideCache[(reinterpret_cast<uintptr_t>(&si) >> 4) &
                   (elideCache.size() - 1)];
    if (slot.si == &si)
        return slot.elide;
    bool elide = false;
    for (auto *e : active)
        if (e->mayElideExecution(si)) {
            elide = true;
            break;
        }
    slot = {&si, elide};
    return elide;
}

void
Pipeline::doRename()
{
    for (unsigned n = 0; n < cp.renameWidth && nRenamed < window.size();
         ++n) {
        InflightInst &head = window[nRenamed];
        if (head.fetchCycle + cp.frontendDepth > cycle)
            break;
        const isa::StaticInst &si = *head.si;
        if (nRenamed >= cp.robSize) {
            ++st.renameStallRob;
            break;
        }
        // Conservative IQ gating: an engine that *may* elide execution
        // is trusted to, even though elision can still fail at rename
        // (e.g. an ISRB-refused move).
        bool needs_exec =
            !mayElideExecution(si) && si.opClass() != OpClass::Nop;
        if (needs_exec && iqUsed >= cp.iqSize) {
            ++st.renameStallIq;
            break;
        }
        if ((si.isLoad() && lqUsed >= cp.lqSize) ||
            (si.isStore() && sqUsed >= cp.sqSize)) {
            ++st.renameStallLsq;
            break;
        }
        if (si.writesReg() && !rename.hasFree(si.dst)) {
            ++st.renameStallRegs;
            break;
        }
        // Rename in place: the instruction just moves across the
        // ROB/frontend boundary.
        ++nRenamed;
        renameOne(head);
    }
}

// ---------------------------------------------------------------- issue

bool
Pipeline::sourcesReady(const InflightInst &di) const
{
    for (unsigned i = 0; i < di.numSrcs; ++i)
        if (pregReady[di.srcPregs[i]] > cycle)
            return false;
    return true;
}

u64
Pipeline::issueProducerSeq(const InflightInst &di) const
{
    // Equality-predicted instructions (and likely candidates) are made
    // dependent on their producer so the validation micro-op can catch
    // the shared value on the bypass network (IV-F1). The ideal-
    // validation arm has no such constraint.
    if (idealVal)
        return 0;
    if (di.action == RenameAction::RsepShared)
        return di.shareProducerSeq;
    return di.likelyCandidate ? di.candidateProducerSeq : 0;
}

void
Pipeline::parkWaiter(InflightInst &di, u32 &chain_head, SchedState state)
{
    di.schedToken = ++schedCounter;
    di.schedState = state;
    chain_head = waiters.alloc(di.traceIdx, di.schedToken, chain_head);
}

void
Pipeline::scheduleIssue(InflightInst &di)
{
    // Park on the first blocker whose ready time is not yet known; its
    // wake re-runs this from scratch, so one chain membership at a
    // time is enough.
    for (unsigned i = 0; i < di.numSrcs; ++i) {
        PhysReg p = di.srcPregs[i];
        if (pregReady[p] == invalidCycle) {
            parkWaiter(di, pregWaiterHead[p], SchedState::WaitPreg);
            return;
        }
    }
    Cycle wake = di.dispatchCycle + 1;
    for (unsigned i = 0; i < di.numSrcs; ++i)
        wake = std::max(wake, pregReady[di.srcPregs[i]]);
    if (u64 extra = issueProducerSeq(di)) {
        if (InflightInst *prod = findBySeq(extra)) {
            if (!prod->issued) {
                // Executing producers announce a completion time at
                // issue; eliminated ones unblock when they retire.
                // Both drain the same chain.
                parkWaiter(di, prod->waiterHead, SchedState::WaitSeq);
                return;
            }
            wake = std::max(wake, prod->completeCycle);
        }
    }
    if (di.storeDepSeq) {
        InflightInst *dep = findBySeq(di.storeDepSeq - 1);
        if (dep && dep->isStore()) {
            if (!dep->issued) {
                parkWaiter(di, dep->waiterHead, SchedState::WaitSeq);
                return;
            }
            wake = std::max(wake, dep->completeCycle);
        }
    }
    di.schedToken = ++schedCounter;
    if (wake <= cycle) {
        di.schedState = SchedState::Ready;
        if (inIssueScan) {
            // Mid-scan wake (zero-latency producer): join the current
            // pass through the deferred side list, never by mutating
            // the vector being scanned.
            auto it = std::lower_bound(
                deferredReady.begin() +
                    static_cast<std::ptrdiff_t>(deferredPos),
                deferredReady.end(), di.traceIdx,
                [](const ReadyEntry &e, u64 s) { return e.seq < s; });
            deferredReady.insert(it,
                                 ReadyEntry{di.traceIdx, di.schedToken});
        } else {
            readyList.insert(di.traceIdx, di.schedToken);
        }
    } else {
        di.schedState = SchedState::InHeap;
        wakeHeap.push(wake, di.traceIdx, di.schedToken);
    }
}

void
Pipeline::wakeChain(u32 head, SchedState expected)
{
    while (head != invalidWaiter) {
        WaiterNode n = waiters.at(head);
        waiters.free(head);
        head = n.next;
        // Stale nodes — the waiter issued, squashed, or its seq was
        // re-fetched since parking — fail the token/state check.
        InflightInst *w = findBySeq(n.seq);
        if (w && w->schedToken == n.token && w->schedState == expected)
            scheduleIssue(*w);
    }
}

void
Pipeline::promoteDueWakeups()
{
    WakeEntry e;
    while (wakeHeap.popDue(cycle, e)) {
        InflightInst *di = findBySeq(e.seq);
        if (!di || di->schedToken != e.token ||
            di->schedState != SchedState::InHeap)
            continue; // orphaned by a squash.
        di->schedState = SchedState::Ready;
        readyList.insert(e.seq, e.token);
    }
}

void
Pipeline::squashSchedCleanup(u64 first_seq)
{
    readyList.truncateFrom(first_seq);
    auto it = std::lower_bound(pendingValidation.begin(),
                               pendingValidation.end(), first_seq);
    pendingValidation.erase(it, pendingValidation.end());
    // Heap entries of squashed instructions go stale by token and are
    // dropped when their wake cycle arrives.
}

void
Pipeline::memIndexRemove(const InflightInst &di)
{
    if (di.isStore())
        memIdx.removeStore(di.rec.effAddr & ~Addr{7}, di.traceIdx);
    else if (di.isLoad() && di.issued)
        memIdx.removeIssuedLoad(di.rec.effAddr & ~Addr{7}, di.traceIdx);
}

Cycle
Pipeline::executeMemOrAlu(InflightInst &di, int port)
{
    const isa::StaticInst &si = *di.si;
    OpClass c = si.opClass();
    if (c == OpClass::Load) {
        // Store-to-load forwarding: youngest older store to the same
        // doubleword that has already executed (O(1) via the index;
        // an unexecuted conflicting store is speculated past).
        Addr dword = di.rec.effAddr & ~Addr{7};
        if (auto s = memIdx.youngestStoreBelow(dword, di.traceIdx)) {
            InflightInst *older = findBySeq(*s);
            if (older && older->issued)
                return std::max(cycle, older->completeCycle) +
                       cp.stlfLat;
        }
        return hier.load(di.pc, di.rec.effAddr, cycle);
    }
    Cycle lat = opLatency(c);
    Cycle done = cycle + lat;
    if (c == OpClass::IntDiv || c == OpClass::FpDiv)
        fuPool.markUnpipelined(port, done); // unpipelined units.
    return done;
}

void
Pipeline::doIssueAndValidate()
{
    fuPool.beginCycle(cycle);
    const bool lock_fu =
        mech.rsep.validation == equality::ValidationPolicy::Issue2xLockFu;

    // 1. Validation micro-ops (picker gives them priority, IV-F1).
    // Only instructions with a pending micro-op are on the list, in
    // ROB age order — arms without validation pay nothing here.
    if (!pendingValidation.empty()) {
        size_t w = 0;
        for (size_t i = 0; i < pendingValidation.size(); ++i) {
            u64 seq = pendingValidation[i];
            InflightInst *dp = findBySeq(seq);
            if (!dp || !dp->needsValidation || dp->validationIssued)
                continue; // retired, squashed or done: drop.
            InflightInst &di = *dp;
            auto keep = [&] { pendingValidation[w++] = seq; };
            if (!di.issued || di.completeCycle > cycle) {
                keep();
                continue;
            }
            // The shared/partner value must be available (back-to-back
            // with the producer via the bypass network).
            u64 prod_seq = di.action == RenameAction::RsepShared
                ? di.shareProducerSeq
                : (di.likelyCandidate ? di.candidateProducerSeq : 0);
            if (prod_seq) {
                InflightInst *prod = findBySeq(prod_seq);
                if (prod &&
                    (!prod->issued || prod->completeCycle > cycle)) {
                    keep();
                    continue;
                }
            }
            if (!idealVal) {
                int port =
                    fuPool.tryIssueValidation(di.si->opClass(), lock_fu);
                if (port < 0) {
                    keep();
                    continue;
                }
            }
            di.validationIssued = true;
            di.validationCycle = cycle;
            if (di.inIq) {
                di.inIq = false;
                --iqUsed;
            }
        }
        pendingValidation.resize(w);
    }

    // 2. Regular issue, oldest first: wake the instructions whose
    // operands become ready this cycle, then scan only the ready set
    // (seq-sorted, so arbitration order matches the old full-ROB walk
    // exactly). Entries that lose port arbitration stay for the next
    // cycle; entries whose conditions are found unmet re-park.
    promoteDueWakeups();
    auto &ready = readyList.entries();
    deferredReady.clear();
    deferredPos = 0;
    inIssueScan = true;

    // Fast path: in-place compaction over the stable vector (mid-scan
    // wakes are routed to deferredReady, never into this vector). The
    // slow merge path below engages only once a same-cycle deferred
    // wake actually appears — possible only under zero-latency
    // configurations.
    const size_t n = ready.size();
    size_t w = 0, i = 0;
    size_t squash_pos = 0;
    // Seq-sorted merge of the unprocessed vector remainder (from
    // @p vec_from) with the unconsumed deferred wakes into the
    // scratch, which then becomes the ready list. Every exit that can
    // leave entries unprocessed — a mid-stage memory-order squash in
    // either pass, or slow-path completion — funnels through this so
    // the list stays sorted and no deferred wake is dropped.
    auto mergeRestInto = [&](size_t vec_from) {
        while (vec_from < n || deferredPos < deferredReady.size()) {
            if (deferredPos >= deferredReady.size() ||
                (vec_from < n &&
                 ready[vec_from].seq <= deferredReady[deferredPos].seq))
                retainedScratch.push_back(ready[vec_from++]);
            else
                retainedScratch.push_back(deferredReady[deferredPos++]);
        }
        ready.swap(retainedScratch);
        inIssueScan = false;
    };
    for (; i < n && deferredReady.empty(); ++i) {
        switch (processReadyEntry(ready[i], squash_pos)) {
          case IssueStep::Drop:
            break;
          case IssueStep::Keep:
            ready[w++] = ready[i];
            break;
          case IssueStep::EndStage:
            // The issuing store may have raised same-cycle deferred
            // wakes before its violation check fired; merge them in,
            // the squash cleanup truncates whatever it removes.
            retainedScratch.assign(ready.begin(),
                                   ready.begin() +
                                       static_cast<std::ptrdiff_t>(w));
            mergeRestInto(i + 1);
            squashFrom(squash_pos, true);
            return;
        }
    }
    if (i >= n && deferredReady.empty()) {
        ready.resize(w);
        inIssueScan = false;
        return;
    }

    // Slow path: merge the unprocessed vector remainder with the
    // same-cycle deferred wakes in ascending seq order (consumers are
    // always younger than the producer that woke them, so the merge
    // only looks forward); survivors collect into the scratch.
    retainedScratch.assign(ready.begin(),
                           ready.begin() + static_cast<std::ptrdiff_t>(w));
    while (i < n || deferredPos < deferredReady.size()) {
        ReadyEntry e;
        if (deferredPos >= deferredReady.size() ||
            (i < n && ready[i].seq <= deferredReady[deferredPos].seq))
            e = ready[i++];
        else
            e = deferredReady[deferredPos++];
        switch (processReadyEntry(e, squash_pos)) {
          case IssueStep::Drop:
            break;
          case IssueStep::Keep:
            retainedScratch.push_back(e);
            break;
          case IssueStep::EndStage:
            mergeRestInto(i);
            squashFrom(squash_pos, true);
            return;
        }
    }
    mergeRestInto(n);
}

/**
 * Attempt to issue one ready-list entry: the body of the per-cycle
 * issue scan (both the fast in-place pass and the deferred-merge
 * pass). Returns whether the entry leaves the list, stays for the
 * next cycle, or — on a detected memory-order violation — the stage
 * must end with a squash from @p squash_pos.
 */
Pipeline::IssueStep
Pipeline::processReadyEntry(ReadyEntry e, size_t &squash_pos)
{
    InflightInst *dp = findBySeq(e.seq);
    if (!dp || dp->schedToken != e.token ||
        dp->schedState != SchedState::Ready)
        return IssueStep::Drop; // stale entry.
    InflightInst &di = *dp;

    // Re-verify the issue conditions. Wake times are exact, so these
    // only fail on the port-retry path when a dependence was
    // re-evaluated conservatively; re-parking keeps us honest.
    if (!sourcesReady(di)) {
        scheduleIssue(di);
        return IssueStep::Drop;
    }
    if (u64 extra_seq = issueProducerSeq(di)) {
        InflightInst *prod = findBySeq(extra_seq);
        if (prod && (!prod->issued || prod->completeCycle > cycle)) {
            scheduleIssue(di);
            return IssueStep::Drop;
        }
    }
    if (di.storeDepSeq) {
        InflightInst *dep = findBySeq(di.storeDepSeq - 1);
        if (dep && dep->isStore() &&
            (!dep->issued || dep->completeCycle > cycle)) {
            scheduleIssue(di);
            return IssueStep::Drop;
        }
    }

    int port = fuPool.tryIssue(di.si->opClass());
    if (port < 0)
        return IssueStep::Keep; // retry next cycle.

    di.issued = true;
    di.schedState = SchedState::None;
    di.completeCycle = executeMemOrAlu(di, port);

    if (!issueSubscribers.empty()) {
        EngineContext ctx = makeContext();
        for (auto *eng : issueSubscribers)
            eng->atIssue(di, ctx);
    }

    if (di.allocatedPreg && di.action != RenameAction::ValuePredicted) {
        pregReady[di.destPreg] = di.completeCycle;
        u32 chain = pregWaiterHead[di.destPreg];
        pregWaiterHead[di.destPreg] = invalidWaiter;
        wakeChain(chain, SchedState::WaitPreg);
    }
    // Store-set and shared-producer dependants now know this
    // instruction's completion time.
    u32 chain = di.waiterHead;
    di.waiterHead = invalidWaiter;
    wakeChain(chain, SchedState::WaitSeq);

    if (!di.needsValidation && di.inIq) {
        di.inIq = false;
        --iqUsed;
    }

    // Branch resolution releases a stalled front end.
    if (di.si->isBranch() && di.bp.redirect == pred::Redirect::Execute) {
        fetchResumeCycle = di.completeCycle + 1;
        fetchWaitingExec = false;
        lastFetchLine = ~Addr{0};
    }

    // Stores: detect memory-order violations against younger loads
    // that already issued to the same doubleword (the index keeps
    // issued loads per doubleword; the oldest younger one is the
    // squash point, as in the old ascending scan).
    if (di.si->isStore()) {
        Addr dword = di.rec.effAddr & ~Addr{7};
        if (auto viol = memIdx.oldestIssuedLoadAbove(dword, di.traceIdx)) {
            InflightInst *yng = findBySeq(*viol);
            storeSets.reportViolation(yng->pc, di.pc);
            ++st.memOrderSquashes;
            squash_pos =
                static_cast<size_t>(*viol - window.front().traceIdx);
            return IssueStep::EndStage;
        }
    } else if (di.isLoad()) {
        memIdx.addIssuedLoad(di.rec.effAddr & ~Addr{7}, di.traceIdx);
    }
    return IssueStep::Drop; // issued: leaves the ready list.
}

// --------------------------------------------------------------- squash

void
Pipeline::undoRename(InflightInst &di)
{
    if (!di.producesReg || di.destPreg == invalidPhysReg)
        return;
    rename.setMap(di.si->dst, di.oldPreg);
    if (di.allocatedPreg) {
        // Normal (or value-predicted) allocation: plain free. Anyone
        // parked on this preg is younger and squashes with it.
        waiters.freeChain(pregWaiterHead[di.destPreg]);
        pregWaiterHead[di.destPreg] = invalidWaiter;
        rename.release(di.destPreg);
        return;
    }
    // Zero-register mappings (zero idiom / zero prediction) allocated
    // nothing; sharing engines undo their ISRB registration.
    EngineContext ctx = makeContext();
    for (auto *e : active)
        e->atSquashInst(di, ctx);
    shadowHook([&](SpeculationEngine &e, EngineContext &c, unsigned) {
        e.atSquashInst(di, c);
    });
}

void
Pipeline::releaseMapping(PhysReg preg)
{
    // Any waiter chain here is stale: in-flight consumers of a preg
    // pin it live, so a released preg has none (commit releases happen
    // after every older consumer retired; squash releases squash the
    // younger consumers too).
    waiters.freeChain(pregWaiterHead[preg]);
    pregWaiterHead[preg] = invalidWaiter;
    rename.release(preg);
    if (fig1) {
        auto it = fig1->liveValues.find(fig1->pregValue[preg]);
        if (it != fig1->liveValues.end() && --it->second == 0)
            fig1->liveValues.erase(it);
    }
}

void
Pipeline::squashFrom(size_t rob_pos, bool refetch_penalty)
{
    // Restore front-end state to the first squashed instruction. When
    // the squash removes only fetched-not-renamed instructions, the
    // snapshot lives at the front of the frontend queue instead.
    if (rob_pos < nRenamed) {
        const InflightInst &first = window[rob_pos];
        bru.restore(first.histFetch, first.rasSnap);
        fetchIdx = first.traceIdx;
        // Every squashed instruction will be re-renamed, so the rename
        // replica rewinds to the first squashed instruction's
        // fetch-time history.
        if (renameHistActive) {
            renameHist_ = first.histFetch;
            renameFolds_.recompute(renameHist_.dir);
        }
    } else if (window.size() > nRenamed) {
        const InflightInst &first = window[nRenamed];
        bru.restore(first.histFetch, first.rasSnap);
        fetchIdx = first.traceIdx;
    }

    // Drop the never-renamed tail first (nothing to undo), then unwind
    // the renamed suffix young to old.
    while (window.size() > nRenamed)
        window.pop_back();
    const bool any_rob = rob_pos < nRenamed;
    const u64 first_seq = any_rob ? window[rob_pos].traceIdx : 0;
    for (size_t i = nRenamed; i-- > rob_pos;) {
        InflightInst &di = window[i];
        // Producer-index removal (young to old: the loop's final
        // rollback of the ordinal counter is the oldest squashed
        // producer's ordinal, keeping live ordinals dense).
        if (valIdx && di.producesReg && di.destPreg != invalidPhysReg) {
            if (auto ord = valIdx->remove(di.rec.result, di.traceIdx))
                valOrdNext = *ord;
        }
        undoRename(di);
        // Dependants parked on this instruction are younger: squashed
        // with it. Drop the chain without waking anyone.
        waiters.freeChain(di.waiterHead);
        di.waiterHead = invalidWaiter;
        memIndexRemove(di);
        if (di.inIq)
            --iqUsed;
        if (di.isLoad())
            --lqUsed;
        if (di.isStore())
            --sqUsed;
        window.pop_back();
    }
    nRenamed = rob_pos;
    if (any_rob)
        squashSchedCleanup(first_seq);
    {
        EngineContext ctx = makeContext();
        for (auto *e : active)
            e->atSquashAll(ctx);
    }
    shadowHook([](SpeculationEngine &e, EngineContext &c, unsigned) {
        e.atSquashAll(c);
    });
    fetchWaitingExec = false;
    lastFetchLine = ~Addr{0};
    fetchResumeCycle = cycle + (refetch_penalty ? 1 : 0);
}

// --------------------------------------------------------------- commit

bool
Pipeline::commitBlocked(const InflightInst &di) const
{
    if (di.needsExec && (!di.issued || di.completeCycle >= cycle))
        return true;
    if (!di.needsExec && di.completeCycle >= cycle)
        return true;
    if (di.needsValidation &&
        (!di.validationIssued || di.validationCycle >= cycle))
        return true;
    return false;
}

void
Pipeline::commitOne(InflightInst &di, bool squash_follows)
{
    const isa::StaticInst &si = *di.si;
    ++st.committedInsts;
    if (si.isLoad())
        ++st.committedLoads;
    if (si.isStore())
        ++st.committedStores;
    if (si.isBranch())
        ++st.committedBranches;
    if (di.producesReg)
        ++st.committedProducers;

    // Fig. 1 probe: result redundancy at commit.
    if (fig1 && di.producesReg) {
        if (di.rec.result == 0 && !si.isZeroIdiom())
            ++(si.isLoad() ? st.fig1ZeroLoad : st.fig1ZeroOther);
        if (fig1->liveValues.count(di.rec.result))
            ++(si.isLoad() ? st.fig1InPrfLoad : st.fig1InPrfOther);
    }

    // Engine coverage accounting and commit-time training.
    {
        EngineContext ctx = makeContext();
        ctx.squashFollowsCommit = squash_follows;
        for (auto *e : active)
            e->atCommit(di, ctx);
    }
    // Shadows get no atCommitHead: its verdict is about an instruction
    // the engine claimed, and a shadow claims none. No shadow engine
    // wants atIssue either.
    shadowHook(
        [&](SpeculationEngine &e, EngineContext &c, unsigned) {
            e.atCommit(di, c);
        },
        squash_follows);

    // Structural commit actions.
    if (si.isBranch())
        bru.onCommitBranch(di.bp, di.pc, si,
                           isa::Program::pcOf(di.rec.nextIdx));
    if (si.isStore()) {
        hier.storeCommit(di.rec.effAddr, cycle);
        storeSets.storeRetire(di.pc, di.traceIdx + 1);
        --sqUsed;
    }
    if (si.isLoad())
        --lqUsed;
    memIndexRemove(di);
    // The oldest producer leaves the equality-index window.
    if (valIdx && di.producesReg && di.destPreg != invalidPhysReg)
        valIdx->remove(di.rec.result, di.traceIdx);

    // Release the previous mapping of the destination register.
    if (di.producesReg && di.oldPreg != invalidPhysReg &&
        di.oldPreg != zeroPreg) {
        switch (isrbUnit.release(di.oldPreg)) {
          case equality::IsrbRelease::NotShared:
          case equality::IsrbRelease::Freed:
            releaseMapping(di.oldPreg);
            break;
          case equality::IsrbRelease::StillLive:
            break;
        }
    }

    // Fig. 1 probe bookkeeping: the new mapping's value becomes live.
    if (fig1 && di.allocatedPreg) {
        fig1->pregValue[di.destPreg] = di.rec.result;
        ++fig1->liveValues[di.rec.result];
    }

    ++committed;
}

void
Pipeline::doCommit()
{
    unsigned producers_this_cycle = 0;

    unsigned n = 0;
    while (n < cp.commitWidth && nRenamed > 0) {
        InflightInst &di = window.front();
        if (commitBlocked(di))
            break;

        // Speculation verdicts (commit-time validation). At most one
        // engine can own the head instruction's rename action, so at
        // most one verdict is non-Proceed.
        CommitVerdict verdict = CommitVerdict::Proceed;
        {
            EngineContext ctx = makeContext();
            for (auto *e : active) {
                verdict = e->atCommitHead(di, ctx);
                if (verdict != CommitVerdict::Proceed)
                    break;
            }
        }
        if (verdict != CommitVerdict::Proceed)
            ++st.commitSquashes;
        if (verdict == CommitVerdict::SquashRefetch) {
            squashFrom(0, true);
            break;
        }
        if (verdict == CommitVerdict::CommitThenSquash) {
            commitOne(di, /*squash_follows=*/true);
            u64 next_idx = di.traceIdx + 1;
            // Dependants parked on the head are about to squash;
            // drop the chain unwoken.
            waiters.freeChain(di.waiterHead);
            di.waiterHead = invalidWaiter;
            window.pop_front();
            --nRenamed;
            squashFrom(0, true);
            fetchIdx = next_idx;
            trace.trimBelow(next_idx);
            break;
        }

        commitOne(di);
        if (di.producesReg)
            ++producers_this_cycle;

        // Retirement is a wake event: an eliminated (never-issuing)
        // producer unblocks its shared-value dependants by leaving the
        // window. Wake after the pop so the rescheduled dependants see
        // it gone — the same cycle the old scan saw findBySeq fail.
        u32 chain = di.waiterHead;
        di.waiterHead = invalidWaiter;
        window.pop_front();
        --nRenamed;
        wakeChain(chain, SchedState::WaitSeq);
        if (!window.empty()) {
            // The window front — renamed or not — bounds every record
            // still reachable (fetched-but-unrenamed instructions may
            // be squashed and re-fetched).
            trace.trimBelow(
                std::min(fetchIdx, window.front().traceIdx));
        } else {
            trace.trimBelow(fetchIdx);
        }
        ++n;
    }

    // End of the commit group: histogram sampling and deferred history
    // probes live in the engines.
    {
        EngineContext ctx = makeContext();
        for (auto *e : cycleSubscribers)
            e->atCommitGroupEnd(producers_this_cycle, ctx);
    }
    shadowCycleHook([&](SpeculationEngine &e, EngineContext &c) {
        e.atCommitGroupEnd(producers_this_cycle, c);
    });
}

bool
Pipeline::checkRegisterConservation() const
{
    // A physical register is LIVE iff it is the current mapping of an
    // architectural register or the old mapping recorded by an
    // in-flight instruction (to be released at its commit). Everything
    // else must be on a free list, and nothing may be both. Each
    // mapping of a shared register is one the ISRB counts.
    std::vector<unsigned> mappings(rename.totalPregs(), 0);
    for (ArchReg r = 0; r < isa::numArchRegs; ++r) {
        PhysReg p_ = rename.map(r);
        if (p_ != invalidPhysReg && p_ != zeroPreg)
            ++mappings[p_];
    }
    for (size_t i = 0; i < nRenamed; ++i) {
        const InflightInst &di = window[i];
        if (di.producesReg && di.oldPreg != invalidPhysReg &&
            di.oldPreg != zeroPreg)
            ++mappings[di.oldPreg];
    }

    size_t free_total = rename.intFreeCount() + rename.fpFreeCount();
    size_t live_total = 1; // the zero register.
    for (unsigned p_ = 0; p_ < rename.totalPregs(); ++p_) {
        if (p_ == zeroPreg)
            continue;
        live_total += mappings[p_] > 0;
        unsigned counted = isrbUnit.isShared(p_)
            ? isrbUnit.liveMappings(p_)
            : std::min(mappings[p_], 1u);
        if (counted != mappings[p_]) {
            rsep_warn("register conservation violated: preg %u has %u "
                      "mappings, the ISRB counts %u",
                      p_, mappings[p_], counted);
            return false;
        }
    }

    if (free_total + live_total != rename.totalPregs()) {
        rsep_warn("register conservation violated: %zu free + %zu live "
                  "!= %u total",
                  free_total, live_total, rename.totalPregs());
        return false;
    }
    return true;
}

Cycle
Pipeline::nextEventCycle() const
{
    // Any queued issue or validation work is retried every cycle (port
    // arbitration); those cycles must run.
    if (!readyList.empty() || !pendingValidation.empty())
        return invalidCycle;

    Cycle next = invalidCycle;
    auto consider = [&next](Cycle c) { next = std::min(next, c); };

    // Rename: an eligible frontend head renames (or ticks a stall
    // counter) every cycle — never skip over it. An ineligible head
    // becomes eligible at a known decode-ready cycle.
    if (window.size() > nRenamed) {
        Cycle ready = window[nRenamed].fetchCycle + cp.frontendDepth;
        if (ready <= cycle + 1)
            return invalidCycle;
        consider(ready);
    }

    // Fetch: runs next cycle unless stalled. An exec-redirect stall or
    // backpressure clears only via issue/rename events (covered below
    // and above); an I-cache stall clears at a known cycle.
    if (!fetchWaitingExec &&
        window.size() - nRenamed < cp.frontendDepth * cp.fetchWidth + 16) {
        if (cycle + 1 >= fetchResumeCycle)
            return invalidCycle;
        consider(fetchResumeCycle);
    }

    // Commit: a head blocked purely on time unblocks at a known cycle.
    // An unissued head has no time bound of its own — it is woken
    // through the scheduler events considered below.
    if (nRenamed > 0) {
        const InflightInst &h = window.front();
        bool unissued_exec = h.needsExec && !h.issued;
        if (!unissued_exec) {
            Cycle unblock = h.completeCycle + 1;
            // needsValidation && !validationIssued implies a pending-
            // validation entry, which already returned above.
            if (h.needsValidation)
                unblock = std::max(unblock, h.validationCycle + 1);
            if (unblock <= cycle + 1)
                return invalidCycle;
            consider(unblock);
        }
    }

    // Scheduler: the earliest pending wake (stale tokens only make
    // this conservative — they end the skip early, never late).
    if (!wakeHeap.empty())
        consider(wakeHeap.nextDue());

    return next;
}

void
Pipeline::reserveWindow()
{
    // Fixed-capacity ring: reserve the structural bound (ROB plus the
    // frontend queue plus one fetch group) so the cycle loop never
    // allocates — and in-place references into the window are never
    // invalidated by growth. A copy holds only its live instructions
    // until it runs.
    window.reserve(cp.robSize + 1 + cp.frontendDepth * cp.fetchWidth +
                   16 + cp.fetchWidth);
}

void
Pipeline::run(u64 ninsts)
{
    hier.thaw();
    reserveWindow();
    runTarget = committed + ninsts;
    runLoop(false);
}

void
Pipeline::resume()
{
    if (!atRenameStage)
        rsep_panic("pipeline: resume() without a snapshot to resume");
    atRenameStage = false;
    hier.thaw();
    reserveWindow();
    runLoop(true);
}

bool
Pipeline::shadowArmed() const
{
    for (const Shadow *s : liveShadows)
        for (const SpeculationEngine *e : s->engines)
            if (e->armed())
                return true;
    return false;
}

void
Pipeline::runLoop(bool at_rename)
{
    const u64 target = runTarget;
    while (at_rename || committed < target) {
        if (!at_rename) {
            ++cycle;
            ++st.cycles;
            doCommit();
            doIssueAndValidate();
            // The snapshot point: every act of this cycle is still to
            // come (DESIGN.md §20, "Forks").
            if (snapshotWanted && shadowArmed()) {
                snapshotWanted = false;
                snapshot = std::make_unique<Pipeline>(*this);
                snapshot->atRenameStage = true;
            }
        }
        at_rename = false;
        doRename();
        doFetch();
        // Fast-forward stretches where provably nothing can happen
        // (mispredict stalls, cache misses): jump to one cycle before
        // the next event so the normal loop executes the event cycle.
        Cycle next = nextEventCycle();
        if (next != invalidCycle && next > cycle + 1) {
            u64 skipped = next - cycle - 1;
            st.cycles += skipped;
            cycle += skipped;
            EngineContext ctx = makeContext();
            for (auto *e : cycleSubscribers)
                e->atIdleCycles(skipped, ctx);
            shadowCycleHook([&](SpeculationEngine &e, EngineContext &c) {
                e.atIdleCycles(skipped, c);
            });
        }
        // Time-series sampling: one null-check when off (fig1Probe
        // discipline); the tick itself is rare (every N-cycle period).
        if (sampler && st.cycles.value() >= sampler->nextDue())
            sampleTick();
        if (cycle > (target + 1) * 1000) {
            if (nRenamed > 0) {
                const InflightInst &h = window.front();
                rsep_panic("pipeline livelock: cycle %llu committed %llu "
                           "head seq %llu pc %llx action %d needsExec %d "
                           "issued %d complete %llu srcs %u "
                           "ready [%llu %llu %llu] storeDep %llu",
                           static_cast<unsigned long long>(cycle),
                           static_cast<unsigned long long>(committed),
                           static_cast<unsigned long long>(h.traceIdx),
                           static_cast<unsigned long long>(h.pc),
                           static_cast<int>(h.action), h.needsExec,
                           h.issued,
                           static_cast<unsigned long long>(h.completeCycle),
                           h.numSrcs,
                           static_cast<unsigned long long>(
                               h.numSrcs > 0 ? pregReady[h.srcPregs[0]] : 0),
                           static_cast<unsigned long long>(
                               h.numSrcs > 1 ? pregReady[h.srcPregs[1]] : 0),
                           static_cast<unsigned long long>(
                               h.numSrcs > 2 ? pregReady[h.srcPregs[2]] : 0),
                           static_cast<unsigned long long>(h.storeDepSeq));
            }
            rsep_panic("pipeline livelock: cycle %llu committed %llu "
                       "(empty rob, frontend %zu, fetchIdx %llu, "
                       "resume %llu, waitingExec %d)",
                       static_cast<unsigned long long>(cycle),
                       static_cast<unsigned long long>(committed),
                       window.size() - nRenamed,
                       static_cast<unsigned long long>(fetchIdx),
                       static_cast<unsigned long long>(fetchResumeCycle),
                       fetchWaitingExec);
        }
    }
}

} // namespace rsep::core
