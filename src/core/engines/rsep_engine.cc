#include "core/engines/rsep_engine.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/pipeline.hh"

namespace rsep::core
{

RsepEngine::RsepEngine(PipelineStats &st,
                       const equality::RsepConfig &rsep_cfg,
                       unsigned total_pregs, u64 seed, unsigned window,
                       bool shadow)
    : SpeculationEngine("rsep", shadow), cfg(rsep_cfg),
      distPred(cfg.distParams(), seed),
      // Only the history in use takes its full size.
      fifo(cfg.useDdt ? 1 : cfg.historyDepth),
      ddtUnit(cfg.useDdt ? cfg.ddtEntries : 1),
      hrfUnit(total_pregs, cfg.hashBits),
      lookups(std::bit_ceil(std::max(window, 1u))),
      // Sampling acts on a likely candidate, whose confidence is at
      // least the start-train threshold (any at threshold 0).
      armLevel(!cfg.sampling ? distPred.actLevel(0)
               : cfg.startTrainThreshold == 0
                   ? 0
                   : distPred.actLevel(cfg.startTrainThreshold))
{
    registerStats(st);
}

void
RsepEngine::registerStats(PipelineStats &st)
{
    registerStat("shared", &st.rsepCorrect, sampleCoverage | sampleCorrect);
    registerStat("mispredicts", &st.rsepMispredicts,
                 sampleCoverage | sampleMispredict);
    registerStat("likelyCandidates", &st.likelyCandidates);
    registerStat("shareFailNoProducer", &st.shareFailNoProducer);
    registerStat("shareFailIsrb", &st.shareFailIsrb);
    registerStat("hashFalsePositives", &st.hashFalsePositives);
}

bool
RsepEngine::armed() const
{
    return distPred.peakLevel() >= armLevel;
}

// ---------------------------------------------------------------- rename

bool
RsepEngine::tryEqualityPredict(InflightInst &di, EngineContext &ctx)
{
    const equality::DistLookup &lk = lookupOf(di);
    if (!lk.usePred)
        return false;
    u32 dist = lk.distance;
    if (dist == 0 || dist > di.traceIdx)
        return false;
    InflightInst *prod = ctx.pipe.findBySeq(di.traceIdx - dist);
    if (!prod || !prod->producesReg || prod->destPreg == invalidPhysReg) {
        ++ctx.st.shareFailNoProducer;
        return false;
    }
    if (retireShadow())
        return false;
    PhysReg preg = prod->destPreg;
    if (preg == zeroPreg) {
        // Sharing with the hardwired zero register needs no ISRB entry
        // (Section III: "register sharing would be trivial").
        di.action = RenameAction::RsepShared;
        di.destPreg = zeroPreg;
        di.needsValidation = true;
        di.shareProducerSeq = prod->traceIdx;
        di.shareProducerValue = 0;
        return true;
    }
    if (!ctx.pipe.isrb().share(preg)) {
        ++ctx.st.shareFailIsrb;
        return false;
    }
    di.action = RenameAction::RsepShared;
    di.destPreg = preg;
    di.shareProducerSeq = prod->traceIdx;
    di.shareProducerValue = prod->rec.result;
    di.needsValidation = true;
    return true;
}

void
RsepEngine::resolveLikelyCandidate(InflightInst &di, EngineContext &ctx)
{
    u32 dist = lookupOf(di).distance;
    if (dist == 0 || dist > di.traceIdx)
        return;
    InflightInst *prod = ctx.pipe.findBySeq(di.traceIdx - dist);
    if (!prod || !prod->producesReg || retireShadow())
        return;
    di.likelyCandidate = true;
    di.candidateHasPartner = true;
    di.candidatePartnerPreg = prod->destPreg;
    di.candidateProducerSeq = prod->traceIdx;
    di.candidatePartnerValue = prod->rec.result;
    di.needsValidation = true;
    ++ctx.st.likelyCandidates;
}

bool
RsepEngine::atRename(InflightInst &di, bool handled, EngineContext &ctx)
{
    const isa::StaticInst &si = *di.si;
    // The lookup happens whenever the instruction could have been a
    // candidate, even if an earlier engine claimed the rename (the
    // predictor sees the fetch-time history either way). Eliminable
    // moves and zero idioms are never candidates.
    equality::DistLookup &lk = lookupOf(di);
    if (!di.producesReg ||
        (ctx.mech.moveElim && si.isEliminableMove()) || si.isZeroIdiom()) {
        lk.valid = false;
        return false;
    }
    // The pipeline's rename-side history replica equals di.histFetch
    // for every renaming instruction; its incrementally folded
    // registers make this lookup O(components) instead of O(history).
    assert(ctx.pipe.renameHist().dir == di.histFetch.dir &&
           ctx.pipe.renameHist().path == di.histFetch.path);
    lk = distPred.lookup(di.pc, di.histFetch, ctx.pipe.renameFolds());
    if (handled)
        return false;
    return tryEqualityPredict(di, ctx);
}

void
RsepEngine::atRenamePost(InflightInst &di, bool handled, EngineContext &ctx)
{
    // Likely-candidate training through the validation datapath
    // (sampling mode, Section IV-B3a): only for instructions no engine
    // claimed, when confidence is building but below the use threshold.
    if (handled || di.likelyCandidate)
        return;
    const equality::DistLookup &lk = lookupOf(di);
    if (!cfg.sampling || !lk.valid || lk.usePred ||
        lk.confidence < cfg.startTrainThreshold)
        return;
    resolveLikelyCandidate(di, ctx);
}

// ---------------------------------------------------------------- commit

CommitVerdict
RsepEngine::atCommitHead(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::RsepShared ||
        di.rec.result == di.shareProducerValue)
        return CommitVerdict::Proceed;
    ++ctx.st.rsepMispredicts;
    distPred.trainIncorrect(lookupOf(di));
    return CommitVerdict::SquashRefetch;
}

void
RsepEngine::atCommit(InflightInst &di, EngineContext &ctx)
{
    // Coverage accounting (Fig. 5).
    if (di.action == RenameAction::RsepShared) {
        ++(di.isLoad() ? ctx.st.distPredLoad : ctx.st.distPredOther);
        ++ctx.st.rsepCorrect;
    }

    if (!di.producesReg)
        return;
    const equality::DistLookup &lk = lookupOf(di);

    u32 csn = static_cast<u32>(ctx.committed & equality::csnMask);
    u16 hash = equality::foldHash(di.rec.result, cfg.hashBits);

    bool eliminated = di.action == RenameAction::ZeroIdiom ||
                      di.action == RenameAction::MoveElim;

    // Predicted instructions and likely candidates train through the
    // validation path and do not probe the history (IV-B3b).
    if (di.action == RenameAction::RsepShared) {
        if (di.rec.result == di.shareProducerValue)
            distPred.train(lk, lk.distance);
        // (mispredicting instances never reach here; see atCommitHead).
    } else if (di.likelyCandidate && di.candidateHasPartner) {
        if (di.rec.result == di.candidatePartnerValue)
            distPred.train(lk, lk.distance);
        else
            distPred.trainIncorrect(lk);
    }

    // Push every committed register producer whose value lives in the
    // PRF (eliminated results live in shared/zero registers already).
    if (!eliminated) {
        hrfUnit.write(di.destPreg == invalidPhysReg ? zeroPreg : di.destPreg,
                      hash);
        if (cfg.useDdt) {
            if (auto m = ddtUnit.accessAndUpdate(hash, csn, di.traceIdx)) {
                if (m->producerValue != di.rec.result)
                    ++ctx.st.hashFalsePositives;
                if (!di.likelyCandidate &&
                    di.action != RenameAction::RsepShared && lk.valid)
                    distPred.train(lk, m->distance);
            }
        } else {
            fifo.push(hash, csn, di.traceIdx, di.rec.result);
            // Plain producers probe the FIFO after the whole commit
            // group pushed (so within-group pairs are visible); defer.
            // A commit that a squash immediately follows (VP
            // mispredict) still pushes its value but never probes —
            // its commit group ends with it.
            if (!ctx.squashFollowsCommit && lk.valid &&
                di.action != RenameAction::RsepShared &&
                !di.likelyCandidate)
                samplePool.push_back(
                    PendingProbe{hash, csn, di.rec.result, lk});
        }
    }
}

void
RsepEngine::atCommitGroupEnd(unsigned producers_this_cycle,
                             EngineContext &ctx)
{
    ctx.st.commitGroupProducers.sample(producers_this_cycle);

    // Execute the deferred probes: all of them (full training) or one
    // randomly sampled per cycle (IV-B3). Probing after the group's
    // pushes matches the paper's "compared with each other"
    // requirement; the self-entry is skipped by the zero-distance
    // guard.
    if (samplePool.empty())
        return;
    size_t lo = 0, hi = samplePool.size();
    if (cfg.sampling) {
        lo = static_cast<size_t>(ctx.rng.below(samplePool.size()));
        hi = lo + 1;
    }
    for (size_t i = lo; i < hi; ++i) {
        PendingProbe &probe = samplePool[i];
        std::optional<u32> pdist;
        if (cfg.propagatePredictedDistance && probe.distLk.valid &&
            probe.distLk.distance != 0)
            pdist = probe.distLk.distance;
        if (auto m = fifo.match(probe.hash, probe.csn, pdist)) {
            if (m->producerValue != probe.result)
                ++ctx.st.hashFalsePositives;
            distPred.train(probe.distLk, m->distance);
        } else {
            distPred.train(probe.distLk, 0);
        }
    }
    samplePool.clear();
}

void
RsepEngine::atIdleCycles(u64 n, EngineContext &ctx)
{
    // An idle cycle is an empty commit group: zero producers sampled,
    // and the probe pool is necessarily empty (nothing committed since
    // atCommitGroupEnd last drained it), so no rng draw either. This is
    // bit-identical to n empty-group atCommitGroupEnd calls.
    ctx.st.commitGroupProducers.sample(0, n);
}

// ---------------------------------------------------------------- squash

void
RsepEngine::atSquashInst(InflightInst &di, EngineContext &ctx)
{
    if (di.action != RenameAction::RsepShared)
        return;
    if (di.destPreg != zeroPreg &&
        ctx.pipe.isrb().squashSharer(di.destPreg) ==
            equality::IsrbRelease::Freed)
        ctx.pipe.releaseMapping(di.destPreg);
}

} // namespace rsep::core
