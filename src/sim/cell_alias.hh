/**
 * @file
 * Cell aliasing (DESIGN.md §20): a matrix cell whose extra engines
 * never act takes the result of an earlier arm of its row instead of
 * being simulated. Exact by proofs made before the cell runs:
 *
 *  - move elimination acts only on eliminable moves, so it never acts
 *    on a program without one (a static proof);
 *  - a zero predictor predicts only after an unbroken run of zero
 *    results at one entry, and it trains at commit in program order,
 *    so a scan of the committed stream bounds every counter before
 *    the cell runs (a streaming proof, equality::ZeroRunScan);
 *
 * or by a shadow run: RSEP's and D-VTAGE's training depends on commit
 * timing, so their engines (and zero prediction, which a shadow shows
 * silent more cheaply than a proof) run as a shadow in the earlier
 * arm's cell (core::Pipeline::attachShadow), and the later cell is
 * taken from that run when the shadow never acted. When it acted, the
 * later cell resumes from the host's snapshot taken before the act
 * (a fork, sim::ForkPoint) instead of simulating from cycle 0.
 *
 * With nothing switched off the rule reuses a repeated config: two
 * arms with one config hash under different labels.
 */

#ifndef RSEP_SIM_CELL_ALIAS_HH
#define RSEP_SIM_CELL_ALIAS_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "rsep/zero_pred.hh"
#include "sim/runner.hh"

namespace rsep::sim
{

/** What a cell proved silent, and the trace it read to prove it. */
struct SilenceProof
{
    unsigned silent = 0; ///< engine bits (cell_alias.cc).
    bool replayed = false;
    bool traceDecodeHit = false;
    u64 traceLoadMicros = 0;
    u64 micros = 0; ///< the proof's wall time, when made ahead.
};

/** True when @p prog holds an instruction move elimination acts on. */
bool hasEliminableMove(const isa::Program &prog);

/** Feed one committed record of @p prog to a zero-run scan. */
void scanZeroRun(equality::ZeroRunScan &scan, const isa::Program &prog,
                 const wl::DynRecord &rec);

/**
 * The aliasing of one matrix run (runCells): which cells take an
 * earlier arm's result, and those whose reference was still running on
 * another worker when they asked. Cells start in config order within a
 * (row, phase), so on one worker every reference has finished first.
 */
class CellAliases
{
  public:
    CellAliases(const std::vector<SimConfig> &configs, MatrixPlan &plan);

    enum Outcome { Simulate, Taken, Deferred, Hosted };

    /**
     * Give cell (b, c, p) the result of the first candidate whose
     * reference runs this phase in this shard and whose switched-off
     * engines are proven silent, with the time this took and the trace
     * its proof read; or, when an earlier cell ran a shadow of it that
     * never acted, that cell's result plus the shadow's counters.
     * Deferred: the reference has not finished, and takeDeferred fills
     * the cell. Hosted: the cell running its shadow has not finished,
     * and that cell's worker finishes this one (hostDone). Simulate:
     * nothing qualifies; call host() next. Called at most once per
     * cell, from any worker. It first waits until each earlier cell
     * that could run its shadow has chosen its shadows, so the same
     * cells are taken on any number of workers.
     */
    Outcome take(size_t b, size_t c, u32 p, const TraceIoOptions &trace_io,
                 const InitialStateSource &initial);

    /** The shadows a cell runs, and the cells they stand for. */
    struct Hosting
    {
        std::vector<size_t> cells; ///< the later arms, in config order.
        std::vector<ShadowArm> arms; ///< their shadows, in that order.
    };

    /**
     * Cell (b, r, p) is about to be simulated: the shadows it runs,
     * one for each later arm c of the row whose candidate r switches
     * RSEP off, unless c's other engines switched off are not proven
     * silent, c is @p cached, c has a candidate that needs no shadow,
     * or another cell runs its shadow. Each such cell is claimed for r.
     */
    Hosting host(size_t b, size_t r, u32 p, const TraceIoOptions &trace_io,
                 const InitialStateSource &initial,
                 const std::function<bool(size_t c)> &cached);

    /** Cell (b, *, p) ran @p hosting: keep each shadow's outcome.
     *  @return the hosted cells whose take() returned Hosted, in config
     *  order; the caller finishes each with takeHosted. */
    std::vector<size_t> hostDone(size_t b, u32 p, Hosting &hosting);

    /** Give hosted cell (b, c, p) its host's result plus its shadow's
     *  counters. False when the shadow retired: simulate the cell. */
    bool takeHosted(size_t b, size_t c, u32 p);

    /**
     * Cell (b, c, p)'s shadow retired after its host's snapshot: finish
     * the cell from the snapshot (ForkPoint::run) into its slot. False
     * when there is no such snapshot: simulate the cell from cycle 0.
     */
    bool fork(size_t b, size_t c, u32 p);

    ShadowCounts shadowCounts();

    /** Cell (b, c, p)'s slot holds its final result (a result-cache
     *  hit included). */
    void finish(size_t b, size_t c, u32 p);

    /** Cell (b, c, p) will claim no (more) shadows: the later cells
     *  waiting in take() for it to choose go on. */
    void hostsKnown(size_t b, size_t c, u32 p);

    /** After the barrier: fill each deferred cell in cell order, so a
     *  reference that is itself deferred comes first, then call
     *  @p done(b, c, p). */
    void takeDeferred(
        const std::function<void(size_t b, size_t c, u32 p)> &done);

  private:
    /** An earlier arm whose config hash is this arm's with the engines
     *  in @c off switched off. */
    struct Candidate
    {
        size_t ref;
        unsigned off;
    };
    struct Pending
    {
        size_t b, c, ref;
        u32 p;
        u64 micros; ///< spent before the reference finished.
    };
    /** A cell whose shadow another cell runs. */
    struct Shadowed
    {
        size_t host;
        enum { Running, Survived, Retired } state = Running;
        bool waiting = false; ///< its take() returned Hosted.
        u64 micros = 0;       ///< spent in that take().
        std::optional<PhaseResult> result; ///< when Survived.
        /** When Retired after the host's snapshot: where its cell
         *  resumes, as that snapshot's shadow forkShadow. */
        std::shared_ptr<ForkPoint> fork;
        size_t forkShadow = 0;
    };

    size_t
    slot(size_t b, size_t c, u32 p) const
    {
        return (b * configs.size() + c) * phases + p;
    }
    Outcome takeCell(size_t b, size_t c, u32 p,
                     const TraceIoOptions &trace_io,
                     const InitialStateSource &initial);
    void fill(const Pending &cell);
    void fillFromShadow(size_t b, size_t c, u32 p, size_t host,
                        PhaseResult arm);

    const std::vector<SimConfig> &configs;
    MatrixPlan &plan;
    /** Per config: those needing no proof first, then by reference. */
    std::vector<std::vector<Candidate>> candidates;
    /** Per config: the candidates a shadow may stand for, after the
     *  no-nesting rule (an arm with any is never a host). */
    std::vector<std::vector<Candidate>> shadowCandidates;
    size_t phases = 0; ///< slots per (row, config).
    std::mutex mtx;
    std::condition_variable hostsKnownCv; ///< a hostKnown slot was set.
    std::vector<char> finished;    ///< per slot; under mtx.
    std::vector<char> hostKnown;   ///< per slot: hostsKnown(); under mtx.
    std::vector<Pending> deferred; ///< under mtx.
    std::map<size_t, Shadowed> shadowed; ///< by slot; under mtx.
    /** Proofs a host made for a later cell before choosing its
     *  shadows, by slot; under mtx. */
    std::map<size_t, SilenceProof> proofs;
    size_t shadowsRetired = 0;           ///< under mtx.
    size_t forks = 0;                    ///< under mtx.
    /** Per-mille of its window each fork resumed at, summed in
     *  integers so the mean is the same in any order; under mtx. */
    u64 forkPermille = 0;
};

} // namespace rsep::sim

#endif // RSEP_SIM_CELL_ALIAS_HH
