#include "core/engines/zero_idiom_engine.hh"

#include "core/pipeline.hh"

namespace rsep::core
{

ZeroIdiomEngine::ZeroIdiomEngine(PipelineStats &st)
    : SpeculationEngine("zero-idiom")
{
    registerStats(st);
}

void
ZeroIdiomEngine::registerStats(PipelineStats &st)
{
    registerStat("eliminated", &st.zeroIdiomElim, sampleCoverage);
}

bool
ZeroIdiomEngine::mayElideExecution(const isa::StaticInst &si) const
{
    return si.isZeroIdiom();
}

bool
ZeroIdiomEngine::atRename(InflightInst &di, bool handled, EngineContext &ctx)
{
    if (handled || !di.si->isZeroIdiom())
        return false;
    di.action = RenameAction::ZeroIdiom;
    di.destPreg = zeroPreg;
    di.needsExec = false;
    di.completeCycle = ctx.cycle;
    return true;
}

void
ZeroIdiomEngine::atCommit(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::ZeroIdiom)
        return;
    ++ctx.st.zeroIdiomElim;
}

} // namespace rsep::core
