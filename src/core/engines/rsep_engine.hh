/**
 * @file
 * Register-sharing equality prediction engine (the paper's mechanism,
 * Sections III-IV): the IDist distance predictor picks an older
 * in-flight producer expected to hold the same value, the renamer maps
 * the destination onto the producer's physical register (ISRB-tracked
 * sharing), a validation micro-op checks the equality, and commit
 * enforces the verdict. Training happens at commit through the FIFO
 * history (or the idealised DDT) over hashed results in the HRF, with
 * optional one-probe-per-cycle sampling and likely-candidate training
 * through the validation datapath (Section IV-B3).
 *
 * First act (a shadow retires there): a confident distance prediction
 * whose producer is in flight, where the engine would share its
 * register, or a likely candidate. Armed once a distance entry is
 * confident enough for either (usePred, or the start-train threshold
 * under sampling).
 */

#ifndef RSEP_CORE_ENGINES_RSEP_ENGINE_HH
#define RSEP_CORE_ENGINES_RSEP_ENGINE_HH

#include <vector>

#include "core/spec_engine.hh"
#include "rsep/config.hh"
#include "rsep/ddt.hh"
#include "rsep/distance_pred.hh"
#include "rsep/fifo_history.hh"
#include "rsep/hash.hh"
#include "rsep/hrf.hh"

namespace rsep::core
{

class RsepEngine : public SpeculationEngine
{
  public:
    /** Each in-flight instruction's distance lookup lives in a ring
     *  indexed by sequence number, of at least @p window (the ROB
     *  size) entries. */
    RsepEngine(PipelineStats &st, const equality::RsepConfig &rsep_cfg,
               unsigned total_pregs, u64 seed, unsigned window,
               bool shadow = false);

    std::unique_ptr<SpeculationEngine>
    clone(PipelineStats &st) const override
    {
        return cloneInto(*this, st);
    }

    bool armed() const override;

    bool atRename(InflightInst &di, bool handled,
                  EngineContext &ctx) override;
    void atRenamePost(InflightInst &di, bool handled,
                      EngineContext &ctx) override;
    CommitVerdict atCommitHead(InflightInst &di,
                               EngineContext &ctx) override;
    void atCommit(InflightInst &di, EngineContext &ctx) override;
    bool wantsCycleHooks() const override { return true; }
    void atCommitGroupEnd(unsigned producers_this_cycle,
                          EngineContext &ctx) override;
    void atIdleCycles(u64 n, EngineContext &ctx) override;
    void atSquashInst(InflightInst &di, EngineContext &ctx) override;

    equality::DistancePredictor &distancePredictor() { return distPred; }
    equality::FifoHistory &fifoHistory() { return fifo; }
    equality::Ddt &ddt() { return ddtUnit; }

  private:
    friend class SpeculationEngine; // cloneInto
    RsepEngine(const RsepEngine &) = default;
    void registerStats(PipelineStats &st);

    equality::DistLookup &
    lookupOf(const InflightInst &di)
    {
        return lookups[di.traceIdx & (lookups.size() - 1)];
    }
    bool tryEqualityPredict(InflightInst &di, EngineContext &ctx);
    void resolveLikelyCandidate(InflightInst &di, EngineContext &ctx);

    equality::RsepConfig cfg;
    equality::DistancePredictor distPred;
    equality::FifoHistory fifo;
    equality::Ddt ddtUnit;
    equality::HashRegisterFile hrfUnit;

    /** Deferred FIFO probes for this commit group (sampling policy). */
    struct PendingProbe
    {
        u16 hash;
        u32 csn;
        u64 result;
        equality::DistLookup distLk;
    };
    std::vector<PendingProbe> samplePool;
    /** In-flight lookups by sequence number (a power of two). */
    std::vector<equality::DistLookup> lookups;
    /** The raw distance-confidence level at which the engine acts. */
    unsigned armLevel;
};

} // namespace rsep::core

#endif // RSEP_CORE_ENGINES_RSEP_ENGINE_HH
