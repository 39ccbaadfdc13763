/**
 * @file
 * D-VTAGE value-prediction engine (paper Section V / Fig. 4 "VP" arm):
 * a TAGE-indexed differential value predictor. A confident prediction
 * makes the result available at dispatch; the instruction still
 * executes and writes its own register, so a mispredict commits the
 * instruction and squashes everything younger.
 *
 * First act (a shadow retires there): a confident prediction for an
 * instruction no earlier engine claimed. Armed once a delta entry is
 * confident.
 */

#ifndef RSEP_CORE_ENGINES_DVTAGE_ENGINE_HH
#define RSEP_CORE_ENGINES_DVTAGE_ENGINE_HH

#include <vector>

#include "core/spec_engine.hh"
#include "pred/dvtage.hh"

namespace rsep::core
{

class DvtageEngine : public SpeculationEngine
{
  public:
    /** Each in-flight instruction's lookup lives in a ring indexed by
     *  sequence number, of at least @p window (the ROB size) entries. */
    DvtageEngine(PipelineStats &st, const pred::DvtageParams &params,
                 u64 seed, unsigned window, bool shadow = false);

    std::unique_ptr<SpeculationEngine>
    clone(PipelineStats &st) const override
    {
        return cloneInto(*this, st);
    }

    bool armed() const override { return vp.everConfident(); }

    bool atRename(InflightInst &di, bool handled,
                  EngineContext &ctx) override;
    CommitVerdict atCommitHead(InflightInst &di,
                               EngineContext &ctx) override;
    void atCommit(InflightInst &di, EngineContext &ctx) override;
    void atSquashAll(EngineContext &ctx) override;

    pred::Dvtage &predictor() { return vp; }

    StatCounter predicted; ///< rename-time confident predictions.

  private:
    friend class SpeculationEngine; // cloneInto
    DvtageEngine(const DvtageEngine &) = default;
    void registerStats(PipelineStats &st);

    pred::VpLookup &
    lookupOf(const InflightInst &di)
    {
        return lookups[di.traceIdx & (lookups.size() - 1)];
    }

    pred::Dvtage vp;
    /** In-flight lookups by sequence number (a power of two). */
    std::vector<pred::VpLookup> lookups;
};

} // namespace rsep::core

#endif // RSEP_CORE_ENGINES_DVTAGE_ENGINE_HH
