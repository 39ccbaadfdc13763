/**
 * @file
 * The pluggable speculation-engine interface.
 *
 * Every speculation/elimination mechanism (zero-idiom elimination, move
 * elimination, zero prediction, RSEP equality prediction, D-VTAGE value
 * prediction) is a self-contained SpeculationEngine. The pipeline owns
 * only stage orchestration (fetch/rename/issue/commit scheduling, the
 * ROB, the rename map and free lists, the ISRB sharing substrate) and
 * dispatches to its registered engines at fixed hook points:
 *
 *  - rename:  atRename (priority chain over engines in registration
 *             order; the first engine to claim the destination rename
 *             wins) and atRenamePost (after all engines ran, for
 *             training-path decisions that depend on the final verdict,
 *             e.g. RSEP likely-candidate sampling).
 *  - execute: atIssue, when the instruction wins an FU and begins
 *             execution.
 *  - commit:  atCommitHead (speculation verdict for the head-of-ROB
 *             instruction), atCommit (training/coverage accounting for
 *             a committing instruction) and atCommitGroupEnd (once per
 *             commit cycle, after the whole commit group retired).
 *  - squash:  atSquashInst (undo rename-time side effects of one
 *             squashed instruction) and atSquashAll (pipeline-wide
 *             squash notification).
 *
 * Only the engines enabled in MechConfig are *registered*, i.e.
 * receive hook calls; the pipeline builds an unregistered engine only
 * when one of its structure accessors asks for it. See DESIGN.md
 * "Speculation engines".
 *
 * An engine may also run as a *shadow* (Pipeline::attachShadow,
 * DESIGN.md §20): it gets the hooks of another arm's pipeline and
 * trains on them, but at its first act it retires instead of acting.
 * A shadow that is promoted (Pipeline::promoteShadow) acts from then
 * on.
 */

#ifndef RSEP_CORE_SPEC_ENGINE_HH
#define RSEP_CORE_SPEC_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/dyninst.hh"

namespace rsep::core
{

class Pipeline;
struct MechConfig;
struct PipelineStats;

/** Verdict of a head-of-ROB speculation check at commit. */
enum class CommitVerdict : u8 {
    Proceed,          ///< not this engine's instruction, or correct.
    SquashRefetch,    ///< mispredicted: squash from head and re-fetch.
    CommitThenSquash, ///< commit this instruction, squash everything
                      ///< younger (the D-VTAGE recovery policy).
};

/**
 * Per-hook view of the pipeline handed to engines. @c cycle and
 * @c committed are snapshots taken when the hook fires; @c committed is
 * the architectural commit count *before* the current instruction
 * retires (the CSN source used by the equality structures).
 */
struct EngineContext
{
    Pipeline &pipe;
    PipelineStats &st; ///< shared paper-facing aggregate statistics.
    const MechConfig &mech;
    Rng &rng; ///< the pipeline's shared RNG (training randomisation).
    Cycle cycle;
    u64 committed;
    /** This atCommit is a CommitThenSquash verdict being honoured: the
     *  instruction retires but everything younger (including the rest
     *  of the commit group) is about to squash. */
    bool squashFollowsCommit = false;
};

/**
 * Role tags of a registered counter for the time-series sampler
 * (sampler.hh). Each sample row carries one coverage/correct/mispredict
 * slot per engine; the pipeline fills a registered engine's slot by
 * summing its counters under these tags, so the mapping lives where
 * the counter is registered. A counter may carry several roles.
 */
enum SampleRole : unsigned {
    sampleCoverage = 1,   ///< instructions the mechanism acted on.
    sampleCorrect = 2,    ///< ... of which verified correct at commit.
    sampleMispredict = 4, ///< ... of which squashed at commit.
};

/** Base class of all speculation engines. */
class SpeculationEngine
{
  public:
    /** @p as_shadow: retire at the first act instead of acting. */
    explicit SpeculationEngine(std::string engine_name,
                               bool as_shadow = false)
        : nm(std::move(engine_name)), shadow(as_shadow)
    {
    }
    virtual ~SpeculationEngine() = default;

    SpeculationEngine &operator=(const SpeculationEngine &) = delete;

    /**
     * A copy of this engine, its tables and counters included, whose
     * registered counters are @p st's where this engine's are a
     * PipelineStats' (a copied pipeline's engines count into the
     * copy's statistics).
     */
    virtual std::unique_ptr<SpeculationEngine>
    clone(PipelineStats &st) const = 0;

    const std::string &name() const { return nm; }

    /** A shadow engine reached its first act, so its arm's pipeline
     *  leaves the host's trajectory there. */
    bool retired() const { return hasRetired; }

    /**
     * True from the first commit-side update that lifts an entry the
     * engine reads at rename to the confidence at which it acts there.
     * Confidence rises only at commit and every first act happens at
     * rename, so a pipeline copied before the rename stage of the
     * first cycle in which this holds precedes the engine's first act.
     * Only the engines that can run as a shadow implement it.
     */
    virtual bool armed() const { return false; }

    /** A live shadow becomes a registered engine that acts. */
    void promote() { shadow = false; }

    // ------------------------------------------------------- rename hooks
    /**
     * Rename-stage hook, called for every renamed instruction in
     * engine-registration order. @p handled is true when an earlier
     * engine already claimed the destination rename; engines may still
     * perform predictor lookups in that case (lookups happen under the
     * fetch-time history regardless of the final rename verdict).
     * @return true when this engine claimed the destination rename.
     */
    virtual bool
    atRename(InflightInst &di, bool handled, EngineContext &ctx)
    {
        (void)di, (void)handled, (void)ctx;
        return false;
    }

    /** Late rename hook, after every engine's atRename ran. */
    virtual void
    atRenamePost(InflightInst &di, bool handled, EngineContext &ctx)
    {
        (void)di, (void)handled, (void)ctx;
    }

    /**
     * True when this engine may elide execution of @p si at rename
     * (used by the rename-stage IQ gating, which is conservative: it
     * does not know yet whether elision will actually succeed).
     */
    virtual bool
    mayElideExecution(const isa::StaticInst &si) const
    {
        (void)si;
        return false;
    }

    // ------------------------------------------------------ execute hooks
    /**
     * True when the engine wants atIssue dispatches. Issue is the
     * simulator's hottest loop, so the pipeline only pays for the hook
     * for engines that opt in.
     */
    virtual bool wantsIssueHook() const { return false; }

    /** The instruction won an FU this cycle and begins execution
     *  (dispatched only to engines with wantsIssueHook()). */
    virtual void
    atIssue(InflightInst &di, EngineContext &ctx)
    {
        (void)di, (void)ctx;
    }

    // ------------------------------------------------------- commit hooks
    /** Speculation verdict for the head-of-ROB instruction. */
    virtual CommitVerdict
    atCommitHead(InflightInst &di, EngineContext &ctx)
    {
        (void)di, (void)ctx;
        return CommitVerdict::Proceed;
    }

    /** Training and coverage accounting for a committing instruction. */
    virtual void
    atCommit(InflightInst &di, EngineContext &ctx)
    {
        (void)di, (void)ctx;
    }

    /**
     * True when atCommitGroupEnd or atIdleCycles does something. They
     * run every cycle, so the pipeline calls them only on engines that
     * opt in.
     */
    virtual bool wantsCycleHooks() const { return false; }

    /** Once per commit cycle, after the whole group retired. */
    virtual void
    atCommitGroupEnd(unsigned producers_this_cycle, EngineContext &ctx)
    {
        (void)producers_this_cycle, (void)ctx;
    }

    /**
     * The pipeline fast-forwarded @p n provably idle cycles (no fetch,
     * rename, issue, validation or commit activity was possible in any
     * of them). An engine whose atCommitGroupEnd has per-cycle effects
     * even on empty groups must replay them here, bit-identically to
     * n empty-group calls; engines without such effects ignore it.
     */
    virtual void
    atIdleCycles(u64 n, EngineContext &ctx)
    {
        (void)n, (void)ctx;
    }

    // ------------------------------------------------------- squash hooks
    /** Undo the rename-time side effects of one squashed instruction. */
    virtual void
    atSquashInst(InflightInst &di, EngineContext &ctx)
    {
        (void)di, (void)ctx;
    }

    /** A pipeline squash happened (any cause). */
    virtual void
    atSquashAll(EngineContext &ctx)
    {
        (void)ctx;
    }

    // --------------------------------------------------- per-engine stats
    /**
     * One counter per fact: an engine registers the PipelineStats
     * counter for every fact the pipeline stats already hold, and owns
     * a counter only for a fact they lack. Either way it is exported
     * as `engine.<name>.<stat>`.
     */
    struct StatEntry
    {
        std::string name;
        StatCounter *counter;
        unsigned roles; ///< SampleRole flags; 0 = not sampled.
    };

    const std::vector<StatEntry> &statEntries() const { return entries; }

    /** Value of a registered counter by name; 0 when absent. */
    u64
    statValue(const std::string &stat_name) const
    {
        for (const auto &e : entries)
            if (e.name == stat_name)
                return e.counter->value();
        return 0;
    }

    /** Zero all registered counters (end of warmup). */
    void
    resetStats()
    {
        for (auto &e : entries)
            e.counter->reset();
    }

  protected:
    /** Copies all but the registered counters: the copy registers its
     *  own (clone()). */
    SpeculationEngine(const SpeculationEngine &o)
        : nm(o.nm), shadow(o.shadow), hasRetired(o.hasRetired)
    {
    }

    /** A copy of @p engine (an E) that registers its counters in
     *  @p st: what each engine's clone() returns. */
    template <class E>
    static std::unique_ptr<SpeculationEngine>
    cloneInto(const E &engine, PipelineStats &st)
    {
        std::unique_ptr<E> copy(new E(engine));
        copy->registerStats(st);
        return copy;
    }

    /**
     * Call at a first-act point, before the engine changes anything
     * outside itself: a shadow retires there, and the caller returns
     * without acting. @return true when it retired.
     */
    bool
    retireShadow()
    {
        hasRetired = shadow;
        return shadow;
    }

    void
    registerStat(std::string stat_name, StatCounter *c, unsigned roles = 0)
    {
        entries.push_back({std::move(stat_name), c, roles});
    }

  private:
    std::string nm;
    bool shadow;
    bool hasRetired = false;
    std::vector<StatEntry> entries;
};

} // namespace rsep::core

#endif // RSEP_CORE_SPEC_ENGINE_HH
