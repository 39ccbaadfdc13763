#include "core/engines/dvtage_engine.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/pipeline.hh"

namespace rsep::core
{

DvtageEngine::DvtageEngine(PipelineStats &st,
                           const pred::DvtageParams &params, u64 seed,
                           unsigned window, bool shadow)
    : SpeculationEngine("dvtage", shadow), vp(params, seed),
      lookups(std::bit_ceil(std::max(window, 1u)))
{
    registerStats(st);
}

void
DvtageEngine::registerStats(PipelineStats &st)
{
    registerStat("predicted", &predicted, sampleCoverage);
    registerStat("correct", &st.vpCorrect, sampleCorrect);
    registerStat("mispredicts", &st.vpMispredicts, sampleMispredict);
}

bool
DvtageEngine::atRename(InflightInst &di, bool handled, EngineContext &ctx)
{
    pred::VpLookup &lk = lookupOf(di);
    lk.valid = false;
    if (!di.producesReg || di.si->isZeroIdiom())
        return false;
    // Folded-history fast path (see Pipeline::renameHist()).
    assert(ctx.pipe.renameHist().dir == di.histFetch.dir &&
           ctx.pipe.renameHist().path == di.histFetch.path);
    lk = vp.lookup(di.pc, di.histFetch, ctx.pipe.renameFolds());
    if (handled || !lk.confident || retireShadow())
        return false;
    di.action = RenameAction::ValuePredicted;
    vp.notifySpeculated(lk);
    ++predicted;
    return true;
}

CommitVerdict
DvtageEngine::atCommitHead(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::ValuePredicted ||
        lookupOf(di).predicted == di.rec.result)
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
    pred::VpLookup &lk = lookupOf(di);
    if (di.action == RenameAction::ValuePredicted) {
        ++(di.isLoad() ? ctx.st.valuePredLoad : ctx.st.valuePredOther);
        ++ctx.st.vpCorrect;
    }
    // An equality-shared instruction that this predictor would also
    // have covered (Fig. 5 overlap).
    if (di.action == RenameAction::RsepShared && lk.valid && lk.confident)
        ++ctx.st.rsepVpOverlap;
    if (lk.valid)
        vp.commit(lk, di.rec.result);
}

void
DvtageEngine::atSquashAll(EngineContext &)
{
    vp.squash();
}

} // namespace rsep::core
