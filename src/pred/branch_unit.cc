#include "pred/branch_unit.hh"

#include "isa/program.hh"

namespace rsep::pred
{

using isa::Opcode;

BranchUnit::BranchUnit(const TageParams &tp, u64 seed) : tage(tp, seed)
{
    tage.registerFolds(foldSpec);
    fetchFolds.bind(&foldSpec);
}

void
BranchUnit::onFetchBranch(Addr pc, const isa::StaticInst &si,
                          bool actual_taken, Addr actual_target,
                          BranchPrediction &bp)
{
    bp.rasSnap = ras.snapshot();
    bp.actualTaken = actual_taken;

    if (si.isCondBranch()) {
        ++condBranches;
        tage.predict(pc, hist, fetchFolds, bp.tageLk);
        bp.predTaken = bp.tageLk.pred;
        if (bp.predTaken != actual_taken) {
            ++condMispredicts;
            bp.redirect = Redirect::Execute;
        } else if (actual_taken && btb.lookup(pc) != actual_target) {
            // Right direction but no target until decode.
            ++btbMissBubbles;
            bp.redirect = Redirect::Decode;
        }
    } else if (si.op == Opcode::Ret) {
        bp.predTaken = true;
        Addr pred_target = ras.pop();
        if (pred_target != actual_target) {
            ++returnMispredicts;
            bp.redirect = Redirect::Execute;
        }
    } else if (si.op == Opcode::BrInd) {
        bp.predTaken = true;
        Addr pred_target = btb.lookup(pc);
        if (pred_target != actual_target) {
            ++indirectMispredicts;
            bp.redirect = Redirect::Execute;
        }
    } else {
        // Unconditional direct (B / Bl): target known at decode at the
        // latest; BTB miss costs a decode bubble only.
        bp.predTaken = true;
        if (btb.lookup(pc) != actual_target) {
            ++btbMissBubbles;
            bp.redirect = Redirect::Decode;
        }
        if (si.isCall())
            ras.push(pc + isa::Program::instBytes);
    }

    // Speculative history insert: trace-driven fetch records the actual
    // outcome (wrong paths are never fetched). Unconditional and
    // indirect transfers advance the path history with their target.
    if (si.isCondBranch()) {
        fetchFolds.insertDir(actual_taken, hist.dir);
        hist.insert(actual_taken, pc);
    } else {
        hist.insertPath(actual_target);
    }
}

void
BranchUnit::onCommitBranch(const BranchPrediction &bp, Addr pc,
                           const isa::StaticInst &si, Addr actual_target)
{
    // The lookup carried its component indices/tags from fetch, so
    // training needs no commit-side history replica.
    if (si.isCondBranch())
        tage.update(bp.tageLk, pc, bp.actualTaken);
    if (bp.actualTaken && si.op != Opcode::Ret)
        btb.update(pc, actual_target);
}

} // namespace rsep::pred
