/**
 * @file
 * Zero-prediction engine (paper Section III): a PC-indexed confidence
 * table predicts that an instruction writes 0; the renamer maps its
 * destination to the hardwired zero register. Speculative: a validation
 * micro-op executes the instruction and the verdict is enforced at
 * commit (mispredicts squash from head).
 *
 * First act (a shadow retires there): a confident prediction.
 */

#ifndef RSEP_CORE_ENGINES_ZERO_PRED_ENGINE_HH
#define RSEP_CORE_ENGINES_ZERO_PRED_ENGINE_HH

#include "core/spec_engine.hh"
#include "rsep/zero_pred.hh"

namespace rsep::core
{

class ZeroPredEngine : public SpeculationEngine
{
  public:
    ZeroPredEngine(PipelineStats &st, unsigned entries,
                   ConfidenceKind kind, bool shadow = false);

    bool atRename(InflightInst &di, bool handled,
                  EngineContext &ctx) override;
    CommitVerdict atCommitHead(InflightInst &di,
                               EngineContext &ctx) override;
    void atCommit(InflightInst &di, EngineContext &ctx) override;

    StatCounter predictions; ///< rename-time zero predictions made.

  private:
    equality::ZeroPredictor zp;
};

} // namespace rsep::core

#endif // RSEP_CORE_ENGINES_ZERO_PRED_ENGINE_HH
