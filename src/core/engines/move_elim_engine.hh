/**
 * @file
 * Move-elimination engine (paper Section IV-H1): an eliminable
 * register-register move renames its destination onto its source
 * physical register and never executes. Non-speculative; it reuses the
 * ISRB sharing substrate owned by the pipeline, so a squash must undo
 * the sharer registration.
 */

#ifndef RSEP_CORE_ENGINES_MOVE_ELIM_ENGINE_HH
#define RSEP_CORE_ENGINES_MOVE_ELIM_ENGINE_HH

#include "core/spec_engine.hh"

namespace rsep::core
{

class MoveElimEngine : public SpeculationEngine
{
  public:
    explicit MoveElimEngine(PipelineStats &st);

    bool atRename(InflightInst &di, bool handled,
                  EngineContext &ctx) override;
    bool mayElideExecution(const isa::StaticInst &si) const override;
    void atCommit(InflightInst &di, EngineContext &ctx) override;
    void atSquashInst(InflightInst &di, EngineContext &ctx) override;

    StatCounter shareFailures; ///< moves kept because the ISRB refused.
};

} // namespace rsep::core

#endif // RSEP_CORE_ENGINES_MOVE_ELIM_ENGINE_HH
