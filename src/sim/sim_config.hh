/**
 * @file
 * Top-level simulation configuration: Table I core defaults plus the
 * mechanism arms evaluated in the paper's figures.
 */

#ifndef RSEP_SIM_SIM_CONFIG_HH
#define RSEP_SIM_SIM_CONFIG_HH

#include <string>

#include "core/pipeline.hh"

namespace rsep::sim
{

/** A complete experiment configuration. */
struct SimConfig
{
    std::string label = "baseline";
    core::CoreParams core{};
    core::MechConfig mech{};

    // The one run sizing of every driver, registry arm and scenario
    // file without a `[sim]` section: small enough that the full
    // figure suite completes in minutes on one core.
    u64 warmupInsts = 32'000;   ///< per checkpoint (scaled by env).
    u64 measureInsts = 160'000; ///< per checkpoint (scaled by env).
    u32 checkpoints = 2;        ///< paper: 10 (RSEP_CHECKPOINTS env).
    u64 seed = 0x5eed;

    /** Apply RSEP_SIM_SCALE / RSEP_CHECKPOINTS env overrides: the only
     *  scaling of a run's size (the registry factories call it). */
    void applyEnv();

    // ------------------------- Fig. 4 arms -------------------------
    static SimConfig baseline();
    static SimConfig zeroPredOnly();
    static SimConfig moveElimOnly();
    /** RSEP arm: ideal validation, large history, move elim included. */
    static SimConfig rsepIdeal();
    static SimConfig vpOnly();
    static SimConfig rsepPlusVp();

    // ------------------------- Fig. 6 arms -------------------------
    static SimConfig rsepValidation(equality::ValidationPolicy policy,
                                    bool lock_fu_label = false);
    static SimConfig rsepSampling(u32 start_train_threshold);

    // ------------------------- Fig. 7 arms -------------------------
    /** Realistic RSEP: 10.1KB predictor, 128-entry FIFO, 24-entry
     *  ISRB, sampling @63, issue-2x-any-FU validation. */
    static SimConfig rsepRealistic();

    /** Fig. 1 probe configuration (baseline + redundancy probe). */
    static SimConfig fig1Probe();
};

/**
 * Field-introspection hook for the run-sizing scalars (the `[sim]`
 * scenario-file section; label is carried as the scenario name).
 */
template <class V>
void
visitFields(SimConfig &c, V &&v)
{
    v("warmup_insts", c.warmupInsts);
    v("measure_insts", c.measureInsts);
    v("checkpoints", c.checkpoints);
    v("seed", c.seed);
}

/** Render Table I (the simulator configuration overview). */
std::string describeTable1(const SimConfig &cfg);

} // namespace rsep::sim

#endif // RSEP_SIM_SIM_CONFIG_HH
