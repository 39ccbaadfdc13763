/**
 * @file
 * Scenario layer: a named registry of the paper's experiment arms plus
 * a text scenario format, so new arms and parameter sweeps need no
 * rebuild.
 *
 * A scenario is a named SimConfig. The built-in registry is the only
 * place the paper's arms are defined: each is a registered base arm
 * plus the fields it changes, labelled with its name. Every arm,
 * registered or read from a file, gets the one run sizing
 * (SimConfig::applyEnv) exactly once. The text format is `key = value`
 * lines in sections:
 *
 *     # comment (';' also starts a comment)
 *     [scenario]
 *     name = my-arm
 *     base = rsep              # optional: start from a registered arm
 *     [sim]                    # run sizing (SimConfig scalars)
 *     checkpoints = 2
 *     [core]                   # CoreParams fields
 *     rob_size = 192
 *     [mech]                   # MechConfig toggles
 *     equality_pred = true
 *     [rsep]                   # RsepConfig fields
 *     history_depth = 128
 *     validation = issue2x-any-fu
 *
 * Each `[scenario]` header starts a new scenario, so one file can hold
 * a whole sweep. The key set per section is generated from the
 * `visitFields` introspection hooks on the config structs, walked by
 * the one field codec (common/field_codec.hh) — parser, serializer and
 * config hash can never drift apart.
 *
 * A file may also carry `[workload]` blocks — the workload axis of the
 * same idea (see wl/workload_spec.hh): define or override benchmarks
 * without a rebuild. A workload block names a kernel archetype (or a
 * `base` workload to start from) and then sets that archetype's
 * parameter keys:
 *
 *     [workload]
 *     name = mcf-big
 *     base = mcf               # start from a registered workload, or
 *     archetype = pointer_chase#   pick an archetype's defaults
 *     nodes = 262144           # archetype parameter keys (kernels.hh)
 *
 * Parsed workload definitions are returned in ScenarioParse::workloads
 * (file order); registering them is the driver's decision.
 */

#ifndef RSEP_SIM_SCENARIO_HH
#define RSEP_SIM_SCENARIO_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/sim_config.hh"
#include "wl/workload_spec.hh"

namespace rsep::sim
{

/** A named experiment arm. */
struct Scenario
{
    std::string name;
    SimConfig config; ///< config.label mirrors name unless overridden.
};

/** Registry metadata for --list-scenarios. */
struct ScenarioInfo
{
    std::string name; ///< also the config label.
    std::string description;
};

/** Every built-in scenario, in figure order. */
const std::vector<ScenarioInfo> &registeredScenarios();

/**
 * Look up a built-in scenario by name. The config is built on demand,
 * sized by the RSEP_* environment at call time. Returns nullopt when
 * unknown.
 */
std::optional<Scenario> findScenario(const std::string &name);

/** Outcome of parsing scenario text: arms and workload definitions,
 *  or a diagnostic. A file holding only [workload] blocks is valid. */
struct ScenarioParse
{
    std::vector<Scenario> scenarios;
    /** `[workload]` definitions, in file order (not yet registered). */
    std::vector<wl::WorkloadSpec> workloads;
    std::string error; ///< "origin:line: message"; empty on success.

    bool ok() const { return error.empty(); }
};

/** Parse scenario text. @p origin labels diagnostics (e.g. the path). */
ScenarioParse parseScenarioText(const std::string &text,
                                const std::string &origin = "<string>");

/** Parse a scenario file from disk. */
ScenarioParse parseScenarioFile(const std::string &path);

/**
 * Canonical serialization: every covered field, in introspection
 * order, with canonical value spellings. parse(serialize(s)) yields a
 * scenario with an identical config (the round-trip invariant the
 * golden test pins).
 */
std::string serializeScenario(const Scenario &s);
std::string serializeScenarios(const std::vector<Scenario> &list);

/**
 * Stable 64-bit FNV-1a hash of the canonical serialization of the
 * config body (name/label excluded), as 16 hex digits. Identical
 * configs hash identically whatever their provenance — the key the
 * result-caching/sharding roadmap item will use.
 */
std::string configHash(const SimConfig &cfg);

/**
 * Apply one dotted override, e.g. ("rsep.history_depth", "128") — the
 * programmatic face of the file format, used by the sweep drivers.
 * On failure returns false and, when @p err is non-null, stores the
 * diagnostic.
 */
bool applyScenarioKey(SimConfig &cfg, const std::string &dotted_key,
                      const std::string &value, std::string *err = nullptr);

} // namespace rsep::sim

#endif // RSEP_SIM_SCENARIO_HH
