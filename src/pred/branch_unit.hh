/**
 * @file
 * Front-end branch prediction facade: TAGE direction + BTB targets +
 * RAS, with trace-driven speculative history management.
 *
 * The model is trace-driven: wrong-path instructions are never fetched,
 * so the global history always records actual outcomes. What the unit
 * decides is *when* fetch may proceed: a mispredicted branch redirects
 * at execute (full penalty), a BTB-missing taken branch redirects at
 * decode (short bubble).
 *
 * One incremental folded-history register set (ghist.hh) shadows the
 * speculative fetch-side history; every TAGE lookup reads it in O(1)
 * per component instead of re-folding up to 64 history bits. The
 * lookup result carries its component indices/tags (packed u16, see
 * TageLookup) through the ROB, so commit-time training is a pure
 * table write with no history replica and no re-hashing.
 */

#ifndef RSEP_PRED_BRANCH_UNIT_HH
#define RSEP_PRED_BRANCH_UNIT_HH

#include "common/stats.hh"
#include "isa/static_inst.hh"
#include "pred/btb.hh"
#include "pred/ghist.hh"
#include "pred/tage.hh"

namespace rsep::pred
{

/** Outcome of predicting one fetched branch. */
enum class Redirect : u8 {
    None,    ///< correctly predicted.
    Decode,  ///< direction right, target discovered at decode (BTB miss).
    Execute, ///< mispredicted: redirect when the branch executes.
};

/** Per-branch state carried in the ROB for commit-time training. */
struct BranchPrediction
{
    Redirect redirect = Redirect::None;
    bool predTaken = false;
    bool actualTaken = false;
    TageLookup tageLk;
    ReturnAddressStack::Snapshot rasSnap{0, 0};
};

/** Aggregated front-end predictor. */
class BranchUnit
{
  public:
    explicit BranchUnit(const TageParams &tp = TageParams{}, u64 seed = 7);

    /**
     * Process a fetched branch. @p actual_taken / @p actual_target come
     * from the trace. Updates speculative history/RAS. Fills @p bp in
     * place — the caller passes a default-initialized prediction (the
     * pipeline's ROB slot arrives freshly value-initialized), avoiding
     * a by-value round trip of the lookup payload per branch.
     */
    void onFetchBranch(Addr pc, const isa::StaticInst &si, bool actual_taken,
                       Addr actual_target, BranchPrediction &bp);

    /** Convenience by-value wrapper (tests / offline tools). */
    BranchPrediction
    onFetchBranch(Addr pc, const isa::StaticInst &si, bool actual_taken,
                  Addr actual_target)
    {
        BranchPrediction bp;
        onFetchBranch(pc, si, actual_taken, actual_target, bp);
        return bp;
    }

    /** Commit-time predictor training. */
    void onCommitBranch(const BranchPrediction &bp, Addr pc,
                        const isa::StaticInst &si, Addr actual_target);

    /** Squash: restore history and RAS to the given snapshots. */
    void
    restore(const GlobalHist &h, const ReturnAddressStack::Snapshot &rs)
    {
        hist = h;
        fetchFolds.recompute(h.dir);
        ras.restore(rs);
    }

    const GlobalHist &history() const { return hist; }
    ReturnAddressStack::Snapshot rasSnapshot() const { return ras.snapshot(); }

    // Stats.
    StatCounter condBranches;
    StatCounter condMispredicts;
    StatCounter indirectMispredicts;
    StatCounter returnMispredicts;
    StatCounter btbMissBubbles;

  private:
    Tage tage;
    Btb btb;
    ReturnAddressStack ras;
    GeoFoldSpec foldSpec;
    GlobalHist hist;     ///< speculative fetch-side history.
    GeoFolds fetchFolds; ///< folds shadowing @c hist.
};

} // namespace rsep::pred

#endif // RSEP_PRED_BRANCH_UNIT_HH
