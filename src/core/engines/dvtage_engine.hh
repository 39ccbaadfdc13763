/**
 * @file
 * D-VTAGE value-prediction engine (paper Section V / Fig. 4 "VP" arm):
 * a TAGE-indexed differential value predictor. A confident prediction
 * makes the result available at dispatch; the instruction still
 * executes and writes its own register, so a mispredict commits the
 * instruction and squashes everything younger.
 */

#ifndef RSEP_CORE_ENGINES_DVTAGE_ENGINE_HH
#define RSEP_CORE_ENGINES_DVTAGE_ENGINE_HH

#include "core/spec_engine.hh"
#include "pred/dvtage.hh"

namespace rsep::core
{

class DvtageEngine : public SpeculationEngine
{
  public:
    DvtageEngine(PipelineStats &st, const pred::DvtageParams &params,
                 u64 seed);

    bool atRename(InflightInst &di, bool handled,
                  EngineContext &ctx) override;
    CommitVerdict atCommitHead(InflightInst &di,
                               EngineContext &ctx) override;
    void atCommit(InflightInst &di, EngineContext &ctx) override;
    void atSquashAll(EngineContext &ctx) override;

    pred::Dvtage &predictor() { return vp; }

    StatCounter predicted; ///< rename-time confident predictions.

  private:
    pred::Dvtage vp;
};

} // namespace rsep::core

#endif // RSEP_CORE_ENGINES_DVTAGE_ENGINE_HH
