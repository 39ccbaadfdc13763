#include "core/engines/move_elim_engine.hh"

#include "core/pipeline.hh"

namespace rsep::core
{

MoveElimEngine::MoveElimEngine(PipelineStats &st)
    : SpeculationEngine("move-elim")
{
    registerStats(st);
}

void
MoveElimEngine::registerStats(PipelineStats &st)
{
    registerStat("eliminated", &st.moveElim, sampleCoverage);
    registerStat("shareFailures", &shareFailures);
}

bool
MoveElimEngine::mayElideExecution(const isa::StaticInst &si) const
{
    return si.isEliminableMove();
}

bool
MoveElimEngine::atRename(InflightInst &di, bool handled, EngineContext &ctx)
{
    if (handled || !di.si->isEliminableMove())
        return false;
    PhysReg src = di.srcPregs[0];
    if (src != zeroPreg && !ctx.pipe.isrb().share(src)) {
        ++shareFailures;
        return false;
    }
    di.action = RenameAction::MoveElim;
    di.destPreg = src;
    di.needsExec = false;
    di.completeCycle = ctx.cycle;
    return true;
}

void
MoveElimEngine::atCommit(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::MoveElim)
        return;
    ++ctx.st.moveElim;
}

void
MoveElimEngine::atSquashInst(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::MoveElim)
        return;
    if (di.destPreg != zeroPreg &&
        ctx.pipe.isrb().squashSharer(di.destPreg) ==
            equality::IsrbRelease::Freed)
        ctx.pipe.releaseMapping(di.destPreg);
}

} // namespace rsep::core
