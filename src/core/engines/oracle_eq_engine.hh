/**
 * @file
 * Oracle equality engine: the limit study for register-sharing
 * equality prediction.
 *
 * At rename it scans the in-flight window (youngest-first, bounded by
 * the ROB and an optional lookback window) for an older producer whose
 * architectural result equals this instruction's, and shares that
 * producer's physical register through the same ISRB substrate the
 * real RSEP engine uses. Because the trace-driven model knows every
 * architectural result at rename, the "prediction" is perfect: no
 * validation micro-op is needed and no equality misprediction can
 * occur — what remains is the pure headroom of register sharing
 * (earlier wakeups, fewer allocations), bounded only by the ISRB
 * capacity. Registered from MechConfig::oracleEq; the `rsep-oracle`
 * scenario is the packaged arm.
 */

#ifndef RSEP_CORE_ENGINES_ORACLE_EQ_ENGINE_HH
#define RSEP_CORE_ENGINES_ORACLE_EQ_ENGINE_HH

#include "core/spec_engine.hh"

namespace rsep::core
{

class OracleEqEngine : public SpeculationEngine
{
  public:
    /** @p lookback bounds the scan to that many older in-flight
     *  producers (the FIFO history's unit); 0 means "the whole ROB"
     *  (the scan always stops at the ROB head either way). */
    explicit OracleEqEngine(PipelineStats &st, unsigned lookback = 0);
    std::unique_ptr<SpeculationEngine>
    clone(PipelineStats &st) const override
    {
        return cloneInto(*this, st);
    }

    bool atRename(InflightInst &di, bool handled,
                  EngineContext &ctx) override;
    void atCommit(InflightInst &di, EngineContext &ctx) override;
    void atSquashInst(InflightInst &di, EngineContext &ctx) override;

    StatCounter sharedWithZero; ///< committed sharings via the zero reg.

  private:
    friend class SpeculationEngine; // cloneInto
    OracleEqEngine(const OracleEqEngine &) = default;
    void registerStats(PipelineStats &st);

    unsigned window; ///< 0 = ROB-bounded only.
};

} // namespace rsep::core

#endif // RSEP_CORE_ENGINES_ORACLE_EQ_ENGINE_HH
