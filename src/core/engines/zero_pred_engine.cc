#include "core/engines/zero_pred_engine.hh"

#include "core/pipeline.hh"

namespace rsep::core
{

ZeroPredEngine::ZeroPredEngine(PipelineStats &st, unsigned entries,
                               ConfidenceKind kind, bool shadow)
    : SpeculationEngine("zero-pred", shadow), zp(entries, kind)
{
    registerStats(st);
}

void
ZeroPredEngine::registerStats(PipelineStats &st)
{
    registerStat("predictions", &predictions, sampleCoverage);
    registerStat("correct", &st.zeroCorrect, sampleCorrect);
    registerStat("mispredicts", &st.zeroMispredicts, sampleMispredict);
}

bool
ZeroPredEngine::atRename(InflightInst &di, bool handled, EngineContext &)
{
    // Lookups happen only for instructions no earlier engine claimed
    // (eliminated instructions never reach the zero predictor).
    if (!di.producesReg || handled || !zp.predict(di.pc) ||
        retireShadow())
        return false;
    di.action = RenameAction::ZeroPredicted;
    di.destPreg = zeroPreg;
    di.needsValidation = true;
    ++predictions;
    return true;
}

CommitVerdict
ZeroPredEngine::atCommitHead(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::ZeroPredicted || di.rec.result == 0)
        return CommitVerdict::Proceed;
    ++ctx.st.zeroMispredicts;
    zp.update(di.pc, false, &ctx.rng);
    return CommitVerdict::SquashRefetch;
}

void
ZeroPredEngine::atCommit(InflightInst &di, EngineContext &ctx)
{
    if (di.action == RenameAction::ZeroPredicted) {
        ++(di.isLoad() ? ctx.st.zeroPredLoad : ctx.st.zeroPredOther);
        ++ctx.st.zeroCorrect;
    } else if (di.producesReg && di.action != RenameAction::ZeroIdiom &&
               di.action != RenameAction::MoveElim) {
        // atRename looked it up: a producer that the engines ahead of
        // this one (zero idiom, move elimination) did not claim.
        zp.update(di.pc, di.rec.result == 0, &ctx.rng);
    }
}

} // namespace rsep::core
