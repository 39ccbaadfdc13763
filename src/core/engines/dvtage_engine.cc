#include "core/engines/dvtage_engine.hh"

#include <cassert>

#include "core/pipeline.hh"

namespace rsep::core
{

DvtageEngine::DvtageEngine(PipelineStats &st,
                           const pred::DvtageParams &params, u64 seed)
    : SpeculationEngine("dvtage"), vp(params, seed)
{
    registerStat("predicted", &predicted, sampleCoverage);
    registerStat("correct", &st.vpCorrect, sampleCorrect);
    registerStat("mispredicts", &st.vpMispredicts, sampleMispredict);
}

bool
DvtageEngine::atRename(InflightInst &di, bool handled, EngineContext &ctx)
{
    if (!di.producesReg || di.si->isZeroIdiom())
        return false;
    // Folded-history fast path (see Pipeline::renameHist()).
    assert(ctx.pipe.renameHist().dir == di.histFetch.dir &&
           ctx.pipe.renameHist().path == di.histFetch.path);
    di.vpLk = vp.lookup(di.pc, di.histFetch, ctx.pipe.renameFolds());
    if (handled || !di.vpLk.confident)
        return false;
    di.action = RenameAction::ValuePredicted;
    vp.notifySpeculated(di.vpLk);
    ++predicted;
    return true;
}

CommitVerdict
DvtageEngine::atCommitHead(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::ValuePredicted ||
        di.vpLk.predicted == di.rec.result)
        return CommitVerdict::Proceed;
    // VP commits the instruction (its own execution wrote the correct
    // result to its register) and squashes everything younger,
    // including not-yet-renamed fetches.
    ++ctx.st.vpMispredicts;
    return CommitVerdict::CommitThenSquash;
}

void
DvtageEngine::atCommit(InflightInst &di, EngineContext &ctx)
{
    if (di.action == RenameAction::ValuePredicted) {
        ++(di.isLoad() ? ctx.st.valuePredLoad : ctx.st.valuePredOther);
        ++ctx.st.vpCorrect;
    }
    if (di.vpLk.valid)
        vp.commit(di.vpLk, di.rec.result);
}

void
DvtageEngine::atSquashAll(EngineContext &)
{
    vp.squash();
}

} // namespace rsep::core
