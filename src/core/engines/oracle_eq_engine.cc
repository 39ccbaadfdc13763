#include "core/engines/oracle_eq_engine.hh"

#include <cassert>

#include "core/pipeline.hh"

namespace rsep::core
{

OracleEqEngine::OracleEqEngine(PipelineStats &st, unsigned lookback)
    : SpeculationEngine("oracle-eq"), window(lookback)
{
    // The Fig. 5 counters the real engine books into (a registered
    // arm runs one of the two): the oracle never speculates wrong, so
    // every sharing is covered and correct.
    registerStat("shared", &st.rsepCorrect, sampleCoverage | sampleCorrect);
    registerStat("sharedWithZero", &sharedWithZero);
    registerStat("shareFailIsrb", &st.shareFailIsrb);
    registerStat("noPartner", &st.shareFailNoProducer);
}

bool
OracleEqEngine::atRename(InflightInst &di, bool handled, EngineContext &ctx)
{
    // Zero idioms and (when move elimination runs) eliminable moves
    // are never equality candidates — same exclusions as the real
    // engine, so coverage numbers stay comparable.
    if (handled || !di.producesReg || di.si->isZeroIdiom() ||
        (ctx.mech.moveElim && di.si->isEliminableMove()))
        return false;

    // Find the youngest in-window equal-valued producer — the one the
    // paper's distance predictor would learn. The lookback is counted
    // in *producers*, matching the unit of the FIFO history it stands
    // in for (historyDepth committed producers).
    //
    // The pipeline maintains a value -> in-ROB-producer index
    // (value_index.hh) so this is a hash probe over the handful of
    // equal-valued producers instead of a youngest-first walk of the
    // whole ROB. Producer ordinals are dense, so "at most `window`
    // producers scanned before giving up" is the ordinal floor below.
    if (const ValueEqIndex *vidx = ctx.pipe.valueEqIndex()) {
        const u64 next_ord = ctx.pipe.valueEqNextOrd();
        const u64 floor_ord =
            (window && next_ord > window) ? next_ord - window : 0;
        if (const auto *prods = vidx->find(di.rec.result)) {
            for (size_t i = prods->size(); i-- > 0;) {
                const ValueEqIndex::Prod &pe = (*prods)[i];
                if (pe.ord < floor_ord)
                    break; // older than the producer-count window.
                InflightInst *prod = ctx.pipe.findBySeq(pe.seq);
                assert(prod); // indexed producers are in the ROB.
                PhysReg preg = prod->destPreg;
                if (preg != zeroPreg && !ctx.pipe.isrb().share(preg)) {
                    // The substrate, not the oracle, is the limit
                    // here; keep scanning for an older copy of the
                    // value whose ISRB entry still has room.
                    ++ctx.st.shareFailIsrb;
                    continue;
                }
                di.action = RenameAction::OracleShared;
                di.destPreg = preg;
                di.shareProducerSeq = prod->traceIdx;
                di.shareProducerValue = prod->rec.result;
                // Perfect knowledge: no validation micro-op, no
                // misprediction path. The instruction still executes
                // (the oracle removes the *check*, not the data-path
                // work — matching the ideal-validation RSEP arms).
                di.needsValidation = false;
                return true;
            }
        }
        ++ctx.st.shareFailNoProducer;
        return false;
    }

    // Reference walk (no index maintained in this configuration).
    u64 producers_seen = 0;
    for (u64 s = di.traceIdx; s-- > 0;) {
        InflightInst *prod = ctx.pipe.findBySeq(s);
        if (!prod)
            break; // left the ROB window.
        if (!prod->producesReg || prod->destPreg == invalidPhysReg)
            continue;
        if (window && ++producers_seen > window)
            break;
        if (prod->rec.result != di.rec.result)
            continue;

        PhysReg preg = prod->destPreg;
        if (preg != zeroPreg && !ctx.pipe.isrb().share(preg)) {
            ++ctx.st.shareFailIsrb;
            continue;
        }
        di.action = RenameAction::OracleShared;
        di.destPreg = preg;
        di.shareProducerSeq = prod->traceIdx;
        di.shareProducerValue = prod->rec.result;
        di.needsValidation = false;
        return true;
    }
    ++ctx.st.shareFailNoProducer;
    return false;
}

void
OracleEqEngine::atCommit(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::OracleShared)
        return;
    // Book coverage into the same Fig. 5 counters as the real engine
    // so the coverage reports work unchanged for the limit arm.
    ++(di.isLoad() ? ctx.st.distPredLoad : ctx.st.distPredOther);
    ++ctx.st.rsepCorrect;
    if (di.destPreg == zeroPreg)
        ++sharedWithZero;
}

void
OracleEqEngine::atSquashInst(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::OracleShared)
        return;
    if (di.destPreg != zeroPreg &&
        ctx.pipe.isrb().squashSharer(di.destPreg) ==
            equality::IsrbRelease::Freed)
        ctx.pipe.releaseMapping(di.destPreg);
}

} // namespace rsep::core
