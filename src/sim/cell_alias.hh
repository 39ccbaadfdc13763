/**
 * @file
 * Cell aliasing (DESIGN.md §20): a matrix cell whose extra engines
 * provably never act takes the result of an earlier arm of its row
 * instead of being simulated. Exact by proofs made before the cell
 * runs:
 *
 *  - move elimination acts only on eliminable moves, so it never acts
 *    on a program without one (a static proof);
 *  - a zero predictor predicts only after an unbroken run of zero
 *    results at one entry, and it trains at commit in program order,
 *    so a scan of the committed stream bounds every counter before
 *    the cell runs (a streaming proof, equality::ZeroRunScan).
 *
 * With nothing switched off the rule reuses a repeated config: two
 * arms with one config hash under different labels.
 */

#ifndef RSEP_SIM_CELL_ALIAS_HH
#define RSEP_SIM_CELL_ALIAS_HH

#include <functional>
#include <mutex>
#include <vector>

#include "rsep/zero_pred.hh"
#include "sim/runner.hh"

namespace rsep::sim
{

/** True when @p prog holds an instruction move elimination acts on. */
bool hasEliminableMove(const isa::Program &prog);

/** Feed one committed record of @p prog to a zero-run scan. */
void scanZeroRun(equality::ZeroRunScan &scan, const isa::Program &prog,
                 const wl::DynRecord &rec);

/**
 * The aliasing of one matrix run (runMatrix): which cells take an
 * earlier arm's result, and those whose reference was still running on
 * another worker when they asked. Cells start in config order within a
 * (row, phase), so on one worker every reference has finished first.
 */
class CellAliases
{
  public:
    CellAliases(const std::vector<SimConfig> &configs, MatrixPlan &plan);

    enum Outcome { Simulate, Taken, Deferred };

    /**
     * Give cell (b, c, p) the result of the first candidate whose
     * reference runs this phase in this shard and whose switched-off
     * engines are proven silent, with the time this took and the trace
     * its proof read. Deferred: the reference has not finished, and
     * takeDeferred fills the cell. Simulate: no candidate qualifies.
     * Called at most once per cell, from any worker.
     */
    Outcome take(size_t b, size_t c, u32 p, const TraceIoOptions &trace_io,
                 const InitialStateSource &initial);

    /** Cell (b, c, p)'s slot holds its final result. */
    void finish(size_t b, size_t c, u32 p);

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

    size_t
    slot(size_t b, size_t c, u32 p) const
    {
        return (b * configs.size() + c) * phases + p;
    }
    void fill(const Pending &cell);

    const std::vector<SimConfig> &configs;
    MatrixPlan &plan;
    /** Per config: those needing no proof first, then by reference. */
    std::vector<std::vector<Candidate>> candidates;
    size_t phases = 0; ///< slots per (row, config).
    std::mutex mtx;
    std::vector<char> finished;    ///< per slot; under mtx.
    std::vector<Pending> deferred; ///< under mtx.
};

} // namespace rsep::sim

#endif // RSEP_SIM_CELL_ALIAS_HH
