/**
 * @file
 * Zero-idiom elimination engine (baseline feature, Table I): an
 * instruction recognised as a zero idiom (xor r,r,r ...) renames its
 * destination to the hardwired zero register and never executes.
 * Non-speculative: no validation, no recovery.
 */

#ifndef RSEP_CORE_ENGINES_ZERO_IDIOM_ENGINE_HH
#define RSEP_CORE_ENGINES_ZERO_IDIOM_ENGINE_HH

#include "core/spec_engine.hh"

namespace rsep::core
{

class ZeroIdiomEngine : public SpeculationEngine
{
  public:
    explicit ZeroIdiomEngine(PipelineStats &st);
    std::unique_ptr<SpeculationEngine>
    clone(PipelineStats &st) const override
    {
        return cloneInto(*this, st);
    }

    bool atRename(InflightInst &di, bool handled,
                  EngineContext &ctx) override;
    bool mayElideExecution(const isa::StaticInst &si) const override;
    void atCommit(InflightInst &di, EngineContext &ctx) override;

  private:
    friend class SpeculationEngine; // cloneInto
    ZeroIdiomEngine(const ZeroIdiomEngine &) = default;
    void registerStats(PipelineStats &st);
};

} // namespace rsep::core

#endif // RSEP_CORE_ENGINES_ZERO_IDIOM_ENGINE_HH
