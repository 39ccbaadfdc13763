/**
 * @file
 * The cycle-level 8-wide out-of-order core (Table I). The pipeline
 * owns stage orchestration only — fetch / rename / issue+validate /
 * commit scheduling, the ROB, the rename map and free lists, and the
 * ISRB register-sharing substrate. Every speculation mechanism of the
 * paper (zero-idiom elimination, move elimination, zero prediction,
 * register-sharing equality prediction, D-VTAGE value prediction) is a
 * self-contained SpeculationEngine (see spec_engine.hh and
 * core/engines/) registered from MechConfig and dispatched to at
 * Rename / Execute / Commit (Fig. 3).
 *
 * Modelling approach (see DESIGN.md): trace-driven replay of the
 * committed path. Branch mispredictions stall fetch until the branch
 * executes (wrong-path fetch is not simulated); value/equality/zero
 * mispredictions squash at commit and rewind the trace cursor, which is
 * exact because they do not change architectural state.
 */

#ifndef RSEP_CORE_PIPELINE_HH
#define RSEP_CORE_PIPELINE_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ring_buffer.hh"
#include "core/dyninst.hh"
#include "core/sampler.hh"
#include "core/fu_pool.hh"
#include "core/params.hh"
#include "core/rename.hh"
#include "core/spec_engine.hh"
#include "core/trace_buffer.hh"
#include "core/value_index.hh"
#include "core/wakeup.hh"
#include "mem/hierarchy.hh"
#include "pred/branch_unit.hh"
#include "pred/dvtage.hh"
#include "pred/storesets.hh"
#include "rsep/config.hh"
#include "rsep/isrb.hh"

namespace rsep::equality
{
class FifoHistory;
} // namespace rsep::equality

namespace rsep::core
{

class ZeroIdiomEngine;
class MoveElimEngine;
class ZeroPredEngine;
class RsepEngine;
class OracleEqEngine;
class DvtageEngine;

/** Which speculation mechanisms are active (the Fig. 4 arms). */
struct MechConfig
{
    bool zeroIdiomElim = true;  ///< baseline feature (Table I).
    bool moveElim = false;
    bool zeroPred = false;
    bool equalityPred = false;  ///< RSEP.
    bool oracleEq = false;      ///< oracle equality (limit study).
    bool valuePred = false;     ///< D-VTAGE.
    equality::RsepConfig rsep{};
    pred::DvtageParams vp{};
    bool fig1Probe = false;     ///< collect Fig. 1 redundancy stats.
};

/**
 * Field-introspection hook for the MechConfig toggles (the `[mech]`
 * scenario-file section). The nested RsepConfig and DvtageParams are
 * visited through their own hooks as the `[rsep]` and `[vp]` sections.
 */
template <class V>
void
visitFields(MechConfig &m, V &&v)
{
    v("zero_idiom_elim", m.zeroIdiomElim);
    v("move_elim", m.moveElim);
    v("zero_pred", m.zeroPred);
    v("equality_pred", m.equalityPred);
    v("oracle_eq", m.oracleEq);
    v("value_pred", m.valuePred);
    v("fig1_probe", m.fig1Probe);
}

/**
 * The names of the engines a Pipeline under @p mech registers, in
 * registration (dispatch) order: what Pipeline::engines() lists,
 * without building a pipeline.
 */
std::vector<std::string> registeredEngineNames(const MechConfig &mech);

/** Aggregated pipeline statistics. */
struct PipelineStats
{
    StatCounter cycles;
    StatCounter committedInsts;
    StatCounter committedProducers;
    StatCounter committedLoads;
    StatCounter committedStores;
    StatCounter committedBranches;

    // Coverage (Fig. 5), split loads vs others where the paper does.
    StatCounter zeroIdiomElim;
    StatCounter moveElim;
    StatCounter zeroPredOther;
    StatCounter zeroPredLoad;
    StatCounter distPredOther;
    StatCounter distPredLoad;
    StatCounter valuePredOther;
    StatCounter valuePredLoad;

    // Speculation outcomes.
    StatCounter rsepCorrect;
    StatCounter rsepMispredicts;
    StatCounter zeroCorrect;
    StatCounter zeroMispredicts;
    StatCounter vpCorrect;
    StatCounter vpMispredicts;
    StatCounter commitSquashes;
    StatCounter memOrderSquashes;
    StatCounter likelyCandidates;
    StatCounter shareFailNoProducer;
    StatCounter shareFailIsrb;
    StatCounter hashFalsePositives;
    StatCounter rsepVpOverlap; ///< RSEP-covered insts VP would also cover.

    // Fig. 1 probe.
    StatCounter fig1ZeroLoad;
    StatCounter fig1ZeroOther;
    StatCounter fig1InPrfLoad;
    StatCounter fig1InPrfOther;

    // Commit-group eligibility histogram (Section IV-D comparators).
    StatHistogram commitGroupProducers{9};

    // Front-end.
    StatCounter fetchStallCycles;
    StatCounter renameStallRob;
    StatCounter renameStallIq;
    StatCounter renameStallLsq;
    StatCounter renameStallRegs;

    double
    ipc() const
    {
        return cycles.value()
            ? static_cast<double>(committedInsts.value()) /
                  static_cast<double>(cycles.value())
            : 0.0;
    }
};

/**
 * Stat-introspection hook: visit every PipelineStats counter as
 * `v(name, counter)`. The stat-export layer derives its table/CSV
 * columns from this enumeration (the commitGroupProducers histogram is
 * exported bucket-wise by that layer).
 */
template <class V>
void
visitStats(PipelineStats &st, V &&v)
{
    v("cycles", st.cycles);
    v("committed_insts", st.committedInsts);
    v("committed_producers", st.committedProducers);
    v("committed_loads", st.committedLoads);
    v("committed_stores", st.committedStores);
    v("committed_branches", st.committedBranches);
    v("zero_idiom_elim", st.zeroIdiomElim);
    v("move_elim", st.moveElim);
    v("zero_pred_other", st.zeroPredOther);
    v("zero_pred_load", st.zeroPredLoad);
    v("dist_pred_other", st.distPredOther);
    v("dist_pred_load", st.distPredLoad);
    v("value_pred_other", st.valuePredOther);
    v("value_pred_load", st.valuePredLoad);
    v("rsep_correct", st.rsepCorrect);
    v("rsep_mispredicts", st.rsepMispredicts);
    v("zero_correct", st.zeroCorrect);
    v("zero_mispredicts", st.zeroMispredicts);
    v("vp_correct", st.vpCorrect);
    v("vp_mispredicts", st.vpMispredicts);
    v("commit_squashes", st.commitSquashes);
    v("mem_order_squashes", st.memOrderSquashes);
    v("likely_candidates", st.likelyCandidates);
    v("share_fail_no_producer", st.shareFailNoProducer);
    v("share_fail_isrb", st.shareFailIsrb);
    v("hash_false_positives", st.hashFalsePositives);
    v("rsep_vp_overlap", st.rsepVpOverlap);
    v("fig1_zero_load", st.fig1ZeroLoad);
    v("fig1_zero_other", st.fig1ZeroOther);
    v("fig1_in_prf_load", st.fig1InPrfLoad);
    v("fig1_in_prf_other", st.fig1InPrfOther);
    v("fetch_stall_cycles", st.fetchStallCycles);
    v("rename_stall_rob", st.renameStallRob);
    v("rename_stall_iq", st.renameStallIq);
    v("rename_stall_lsq", st.renameStallLsq);
    v("rename_stall_regs", st.renameStallRegs);
}

/** The core. */
class Pipeline
{
  public:
    /** @p src is the committed-path stream: a live wl::Emulator or a
     *  recorded-trace replay source (wl/trace_io.hh). */
    Pipeline(const CoreParams &core_params, const MechConfig &mech,
             wl::TraceSource &src, u64 seed = 1234);
    ~Pipeline();

    /**
     * A copy that continues exactly as this pipeline would: every core
     * structure, the memory hierarchy (its cache levels frozen until
     * the copy next runs), the predictors, the engines (cloned to count
     * into the copy's statistics), the live shadows and a copy of the
     * trace source (wl::TraceSource::clone, which must not be null).
     * The source's program must outlive the copy. Not copied: an
     * attached sampler and a pending snapshot.
     */
    Pipeline(const Pipeline &o);
    Pipeline &operator=(const Pipeline &) = delete;

    /** Run until @p ninsts more instructions commit. */
    void run(u64 ninsts);

    // -------------------------------------------------------- snapshots
    /**
     * Take a snapshot (a copy, the live shadows included) during the
     * following run() calls, between the issue and rename stages of the
     * first cycle in which a live shadow is armed
     * (SpeculationEngine::armed). Every first act of a shadow happens
     * at rename after it is armed, so each shadow live in the snapshot
     * has not acted there yet (DESIGN.md §20, "Forks").
     */
    void requestSnapshot() { snapshotWanted = true; }

    /** The snapshot requestSnapshot() asked for, once taken (moved
     *  out); null before. */
    std::unique_ptr<Pipeline> takeSnapshot() { return std::move(snapshot); }

    /** Continue the run() a snapshot was taken in, from that cycle's
     *  rename stage to that run's target. */
    void resume();

    /** Zero all statistics (end of warmup), engine-owned ones included. */
    void resetStats();

    // ------------------------------------------------ time-series sampling
    /**
     * Attach a StatSampler for the following run() — typically right
     * after resetStats(), so samples cover exactly the measurement
     * window. Costs one pointer null-check per cycle-loop iteration
     * when detached (the fig1Probe discipline: opt-in observability
     * must be free when off). nullptr detaches without flushing.
     */
    void attachSampler(StatSampler *s);

    /** Emit the final partial sample row (delta columns then sum to
     *  the end-of-run totals) and detach the sampler. */
    void finishSampling();

    PipelineStats &stats() { return st; }
    const CoreParams &coreParams() const { return cp; }
    const MechConfig &mechConfig() const { return mech; }

    // ------------------------------------------------ speculation engines
    /** Engines in the rename chain, registered or not. */
    static constexpr size_t chainSlots = 6;

    /** Registered (active) engines in dispatch order. */
    const std::vector<SpeculationEngine *> &engines() const
    {
        return active;
    }

    /** Active engine by name; nullptr when not registered. */
    SpeculationEngine *engineByName(const std::string &name) const;

    // ---------------------------------------------------- shadow engines
    /**
     * Run the @p engines ("zero-pred", "rsep") of another arm, whose
     * configuration is @p arm, beside this pipeline as a *shadow*
     * (DESIGN.md §20). That arm's pipeline is this one plus those
     * engines, so until one of them first acts it follows this
     * pipeline cycle for cycle. The shadow gets the hooks with a
     * context of its own: a zeroed PipelineStats, an Rng seeded like
     * this pipeline's, and @p arm. It never changes this pipeline: at
     * its first act it retires and gets no hook after. Call before the
     * first run(). @return the shadow's index.
     */
    size_t attachShadow(const MechConfig &arm,
                        const std::vector<std::string> &engines);

    /** Shadow @p i reached a first act: its arm left this trajectory. */
    bool shadowRetired(size_t i) const;

    /** The cycle in which retired shadow @p i reached its first act. */
    Cycle shadowActCycle(size_t i) const;

    /**
     * Make live shadow @p i's engines registered engines that act, in
     * their chain positions, count their statistics into this
     * pipeline's, take the shadow's arm configuration and drop every
     * shadow: this pipeline is then that arm's (a fork, when this is a
     * snapshot).
     */
    void promoteShadow(size_t i);

    /** Shadow @p i's engines, in registration order. */
    const std::vector<SpeculationEngine *> &shadowEngines(size_t i) const;

    /** What shadow @p i's arm would count while the shadow lives: this
     *  pipeline's statistics plus the shadow's. */
    PipelineStats shadowArmStats(size_t i);

    /** The value that @p c, a counter of this pipeline's engines or of
     *  shadow @p i's, holds in the arm's pipeline while the shadow
     *  lives. */
    u64 shadowArmValue(size_t i, const StatCounter &c);

    // -------------------------------------------------------- substrates
    pred::BranchUnit &branchUnit() { return bru; }
    mem::MemoryHierarchy &memory() { return hier; }
    equality::Isrb &isrb() { return isrbUnit; }

    // Structure accessors, delegating to the owning engines (an
    // unregistered engine is built on first use, with its seed).
    equality::FifoHistory &fifoHistory();
    equality::DistancePredictor &distancePredictor();
    pred::Dvtage &valuePredictor();

    /** Architectural commit count (CSN source). */
    u64 committedCount() const { return committed; }

    /** Cycles simulated since construction (statistics resets
     *  included). */
    Cycle cycleCount() const { return cycle; }

    /**
     * Rename-side global-history replica and its folded registers:
     * advanced as branches *rename*, so during any instruction's rename
     * hooks it equals that instruction's fetch-time history (commit
     * order == fetch order on the trace-driven path; squashes restore
     * it from the refetch point). Engines performing history-indexed
     * lookups at rename use these instead of folding di.histFetch from
     * scratch. Only bound when a registered engine needs it.
     */
    const pred::GlobalHist &renameHist() const { return renameHist_; }
    const pred::GeoFolds &renameFolds() const { return renameFolds_; }

    /** Value -> in-window producer index for the oracle equality arm;
     *  nullptr unless mech.oracleEq. */
    const ValueEqIndex *valueEqIndex() const { return valIdx.get(); }
    /** Ordinal the *next* renamed producer will receive. */
    u64 valueEqNextOrd() const { return valOrdNext; }

    // ------------------------------------------------------- engine API
    /** In-flight instruction by sequence number; nullptr if retired or
     *  not yet renamed. */
    InflightInst *findBySeq(u64 seq);

    /** Return a physical register to the free list, with Fig. 1 probe
     *  value-liveness bookkeeping. */
    void releaseMapping(PhysReg preg);

    /**
     * Debug invariant: every physical register is accounted for exactly
     * once (free list, architectural mapping, or in-flight allocation,
     * with ISRB-shared registers counted once), and the ISRB counts the
     * mappings of each shared register: its live mappings equal the
     * architectural ones plus the in-flight old mappings, and an
     * unshared register has at most one. @return true if sound.
     */
    bool checkRegisterConservation() const;

  private:
    // --- stages ---
    void doFetch();
    void doRename();
    void doIssueAndValidate();
    void doCommit();

    // --- helpers ---
    EngineContext makeContext();
    void renameOne(InflightInst &di);
    bool sourcesReady(const InflightInst &di) const;
    Cycle executeMemOrAlu(InflightInst &di, int port);
    void squashFrom(size_t rob_pos, bool refetch_penalty);
    void undoRename(InflightInst &di);
    void commitOne(InflightInst &di, bool squash_follows = false);
    bool commitBlocked(const InflightInst &di) const;
    bool mayElideExecution(const isa::StaticInst &si) const;

    /**
     * Memo for mayElideExecution: the verdict is a pure function of
     * the static instruction and the (fixed) engine roster, but the
     * generic query is a virtual call per active engine per renamed
     * instruction. Static instructions are stable for the program's
     * lifetime, so a small direct-mapped pointer-keyed cache turns the
     * steady state into one compare.
     */
    struct ElideCacheEntry
    {
        const isa::StaticInst *si = nullptr;
        bool elide = false;
    };
    mutable std::array<ElideCacheEntry, 256> elideCache{};

    /**
     * Earliest future cycle at which any stage could make progress, or
     * invalidCycle when the next cycle must run normally (work is
     * queued, or no time-driven event is known). run() uses this to
     * fast-forward provably idle stretches — branch-mispredict and
     * cache-miss stalls — in one step; skipped cycles are observable
     * only through st.cycles and the engines' atIdleCycles hook, so
     * every stat dump stays byte-identical to single-stepping.
     */
    Cycle nextEventCycle() const;

    Cycle
    opLatency(isa::OpClass c) const;

    // --- event-driven issue scheduling (wakeup.hh, DESIGN.md §9) ---
    /** The producer seq the issue stage must see complete on the
     *  bypass before @p di may issue (0 = none). */
    u64 issueProducerSeq(const InflightInst &di) const;
    /** (Re)compute where @p di belongs in the scheduler: a waiter
     *  chain, the wakeup heap, or the ready list. */
    void scheduleIssue(InflightInst &di);
    /** Park @p di on @p chain_head with a fresh token. */
    void parkWaiter(InflightInst &di, u32 &chain_head, SchedState state);
    /** Drain a detached waiter chain, rescheduling every still-valid
     *  waiter (callers detach the head first so re-parks never land
     *  back on the chain being drained). */
    void wakeChain(u32 head, SchedState expected);
    /** Promote heap entries due at the current cycle into the ready
     *  list. */
    void promoteDueWakeups();
    /** Outcome of attempting one ready-list entry this cycle. */
    enum class IssueStep : u8 {
        Drop,     ///< leaves the list (issued, stale, or re-parked).
        Keep,     ///< lost port arbitration; retry next cycle.
        EndStage, ///< memory-order violation: squash and end the stage.
    };
    IssueStep processReadyEntry(ReadyEntry e, size_t &squash_pos);
    /** Drop scheduler entries for a squashed ROB suffix starting at
     *  @p first_seq. */
    void squashSchedCleanup(u64 first_seq);
    /** Record/drop @p di's memory footprint in the doubleword index. */
    void memIndexRemove(const InflightInst &di);

    // --- configuration ---
    CoreParams cp;
    MechConfig mech;
    u64 engineSeed; ///< the constructor's seed (engine RNG streams).

    // --- substrate ---
    wl::TraceSource *emul; ///< the committed-path record stream.
    /** A copy's own source (emul points to it); null otherwise. */
    std::unique_ptr<wl::TraceSource> ownedSrc;
    TraceBuffer trace;
    mem::MemoryHierarchy hier;
    pred::BranchUnit bru;
    /** Rename-side history replica (see renameHist()); maintained only
     *  when an active engine registered fold geometry. */
    pred::GeoFoldSpec renameFoldSpec;
    pred::GlobalHist renameHist_;
    pred::GeoFolds renameFolds_;
    bool renameHistActive = false;
    pred::StoreSets storeSets;
    equality::Isrb isrbUnit; ///< register-sharing substrate (shared by
                             ///< the move-elim and RSEP engines).

    // --- speculation engines ---
    // Null until registered or asked for by an accessor (*Eng()),
    // except the zero-idiom and move-elim engines.
    std::unique_ptr<ZeroIdiomEngine> zeroIdiomEngine;
    std::unique_ptr<MoveElimEngine> moveElimEngine;
    std::unique_ptr<ZeroPredEngine> zeroPredEngine;
    std::unique_ptr<OracleEqEngine> oracleEqEngine;
    std::unique_ptr<RsepEngine> rsepEngine;
    std::unique_ptr<DvtageEngine> dvtageEngine;
    std::vector<SpeculationEngine *> active; ///< registered, in order.
    std::vector<SpeculationEngine *> issueSubscribers; ///< wantsIssueHook().
    std::vector<SpeculationEngine *> cycleSubscribers; ///< wantsCycleHooks().

    // --- core state ---
    RenameState rename;
    FuPool fuPool;
    /**
     * The fetch-to-commit instruction window, one fixed-capacity ring
     * (reserved to the structural bounds in the constructor — zero
     * steady-state allocation, contiguous seqs): [0, nRenamed) is the
     * ROB, [nRenamed, size) the frontend queue. Fetch constructs each
     * instruction in place at the back, rename advances the boundary
     * and renames in place, commit pops the front — an InflightInst
     * (~0.3 KB) is never copied between stages.
     */
    RingBuffer<InflightInst> window;
    size_t nRenamed = 0; ///< ROB/frontend boundary within @c window.
    std::vector<Cycle> pregReady;

    // --- issue scheduler state ---
    WaiterPool waiters;
    std::vector<u32> pregWaiterHead; ///< per-preg chain of WaitPreg insts.
    WakeupHeap wakeHeap;
    ReadyList readyList;
    /** Seqs with a pending validation micro-op, in age order (the
     *  validation pass scans only these, not the whole ROB). */
    std::vector<u64> pendingValidation;
    MemDwordIndex memIdx;
    /** Oracle equality producer index (mech.oracleEq only). */
    std::unique_ptr<ValueEqIndex> valIdx;
    u64 valOrdNext = 0;
    /** Same-cycle wakes raised while the issue scan is running (only
     *  possible with zero-latency configs): they must join *this*
     *  cycle's ascending pass — as the old full-ROB walk would have
     *  reached them — but inserting into the vector being scanned
     *  would corrupt it, so they queue here and the scan merges them
     *  in seq order. Consumers are always younger than the producer
     *  that woke them, so the merge only ever looks forward. */
    std::vector<ReadyEntry> deferredReady;
    size_t deferredPos = 0;
    bool inIssueScan = false;
    std::vector<ReadyEntry> retainedScratch; ///< scan survivors (reused).
    u32 schedCounter = 0; ///< token source (monotone, never reused).
    bool idealVal = false; ///< validation == Ideal (config constant).

    // --- time-series sampling (sampler.hh) ---
    /** Fill @p cum with the cumulative counter snapshot the sampler
     *  deltas against. */
    void captureSample(StatSample &cum) const;

    /** The engine, built on first use with its seed. */
    ZeroPredEngine &zeroPredEng();
    RsepEngine &rsepEng();
    DvtageEngine &dvtageEng();
    /** An engine of the arm @p m counting into @p s, seeded like this
     *  pipeline's own; a shadow when @p shadow. */
    std::unique_ptr<ZeroPredEngine>
    buildZeroPred(PipelineStats &s, const MechConfig &m, bool shadow) const;
    std::unique_ptr<RsepEngine>
    buildRsep(PipelineStats &s, const MechConfig &m, bool shadow) const;
    std::unique_ptr<DvtageEngine>
    buildDvtage(PipelineStats &s, const MechConfig &m, bool shadow) const;
    /** The engine slots in chain (registration) order. */
    std::array<SpeculationEngine *, chainSlots> engineSlots() const;
    /** Rebuild the dispatch lists from the engine slots in chain order,
     *  keeping those for which @p registered holds. */
    void relist(const std::function<bool(const SpeculationEngine *)>
                    &registered);

    /** Engines of a later arm run beside this pipeline
     *  (attachShadow). */
    struct Shadow;
    std::vector<std::unique_ptr<Shadow>> shadows;
    std::vector<Shadow *> liveShadows; ///< not retired, attach order.

    /** The cycle loop of run(); a snapshot enters it at the rename
     *  stage (resume()). */
    void runLoop(bool at_rename);
    /** Some live shadow's engine is armed. */
    bool shadowArmed() const;
    /** Give the window its structural capacity (a copy's is tight). */
    void reserveWindow();
    u64 runTarget = 0; ///< the committed count the current run ends at.
    bool snapshotWanted = false;
    bool atRenameStage = false; ///< a snapshot not resumed yet.
    std::unique_ptr<Pipeline> snapshot;
    /** Call @p hook(engine, context, chain position) on every live
     *  shadow's engines, then drop the shadows that retired. */
    template <class Hook>
    void shadowHook(Hook &&hook, bool squash_follows = false);
    /** Call @p hook(engine, context) on every live shadow's engines
     *  that want the per-cycle hooks (none acts there). */
    template <class Hook>
    void shadowCycleHook(Hook &&hook);

    /** Emit every sample boundary st.cycles has crossed. */
    void sampleTick();
    StatSampler *sampler = nullptr; ///< null = sampling off.

    /** Fig. 1 probe state, allocated only when the probe runs so the
     *  liveValues bookkeeping costs nothing on every other arm. */
    struct Fig1State
    {
        std::vector<u64> pregValue; ///< last committed value per preg.
        std::unordered_map<u64, u64> liveValues; ///< value -> live pregs.
    };
    std::unique_ptr<Fig1State> fig1;

    unsigned iqUsed = 0;
    unsigned lqUsed = 0;
    unsigned sqUsed = 0;

    u64 fetchIdx = 0;       ///< next trace index to fetch.
    Cycle cycle = 0;
    Cycle fetchResumeCycle = 0;
    bool fetchWaitingExec = false; ///< stalled on an exec-redirect branch.
    u64 committed = 0;
    Addr lastFetchLine = ~Addr{0};

    Rng rng;
    PipelineStats st;
};

} // namespace rsep::core

#endif // RSEP_CORE_PIPELINE_HH
