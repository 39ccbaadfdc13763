/**
 * @file
 * Top-level simulation configuration: Table I core defaults and the
 * run sizing. The paper's arms are built from it by the scenario
 * registry (sim/scenario.hh).
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

    /**
     * Scale the run size by RSEP_SIM_SCALE (both windows) and
     * RSEP_CHECKPOINTS; malformed or unusable values warn and leave the
     * default. The scenario layer calls this once per arm, registry or
     * file, before any `[sim]` key applies: the only scaling of a run.
     */
    void applyEnv();
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
