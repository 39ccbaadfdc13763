#include "sim/scenario.hh"

#include <sstream>

#include "common/env.hh"
#include "common/envelope.hh"
#include "common/field_codec.hh"
#include "common/fnv.hh"

namespace rsep::sim
{

namespace
{

// ------------------------------------------------------------ registry

/** One arm: the registered arm it starts from plus the fields it
 *  changes. Its label is its name. */
struct RegistryEntry
{
    ScenarioInfo info;
    const char *base; ///< registered arm; nullptr = the Table I core.
    void (*edit)(SimConfig &);
};

const std::vector<RegistryEntry> &
registry()
{
    using equality::RsepConfig;
    using equality::ValidationPolicy;
    static const std::vector<RegistryEntry> entries = {
        {{"baseline", "Table I core, zero-idiom elimination only"}, nullptr,
         [](SimConfig &) {}},
        {{"zero-pred", "baseline + Section III zero prediction"}, "baseline",
         [](SimConfig &c) { c.mech.zeroPred = true; }},
        {{"move-elim", "baseline + move elimination"}, "baseline",
         [](SimConfig &c) { c.mech.moveElim = true; }},
        {{"rsep", "RSEP: ideal validation, large history (Fig. 4 arm)"},
         "baseline",
         [](SimConfig &c) {
             c.mech.moveElim = true; // side effect of sharing (IV-H1).
             c.mech.equalityPred = true;
             c.mech.rsep = RsepConfig::idealLarge();
         }},
        {{"vpred", "D-VTAGE value prediction (~256KB)"}, "baseline",
         [](SimConfig &c) { c.mech.valuePred = true; }},
        {{"rsep+vpred", "RSEP and D-VTAGE combined"}, "rsep",
         [](SimConfig &c) { c.mech.valuePred = true; }},
        {{"rsep-val-ideal", "RSEP, free validation (Fig. 6 arm)"}, "rsep",
         [](SimConfig &c) {
             c.mech.rsep.validation = ValidationPolicy::Ideal;
         }},
        {{"rsep-val-2x-lock",
          "RSEP, re-issue validation locking the FU class (Fig. 6)"},
         "rsep",
         [](SimConfig &c) {
             c.mech.rsep.validation = ValidationPolicy::Issue2xLockFu;
         }},
        {{"rsep-val-2x-any", "RSEP, re-issue validation to any FU (Fig. 6)"},
         "rsep",
         [](SimConfig &c) {
             c.mech.rsep.validation = ValidationPolicy::Issue2xAnyFu;
         }},
        {{"rsep-val-2x-sample15",
          "RSEP, 2x-any validation + sampled training @15 (Fig. 6)"},
         "rsep-val-2x-any",
         [](SimConfig &c) {
             c.mech.rsep.sampling = true;
             c.mech.rsep.startTrainThreshold = 15;
         }},
        {{"rsep-val-2x-sample63",
          "RSEP, 2x-any validation + sampled training @63 (Fig. 6)"},
         "rsep-val-2x-any",
         [](SimConfig &c) {
             c.mech.rsep.sampling = true;
             c.mech.rsep.startTrainThreshold = 63;
         }},
        {{"rsep-realistic",
          "the 10.8KB realistic RSEP implementation (Fig. 7)"},
         "baseline",
         [](SimConfig &c) {
             c.mech.moveElim = true;
             c.mech.equalityPred = true;
             c.mech.rsep = RsepConfig::realistic();
         }},
        {{"fig1-probe", "baseline + Fig. 1 redundancy probe"}, "baseline",
         [](SimConfig &c) { c.mech.fig1Probe = true; }},
        // What bench_fig1_redundancy runs: equality prediction rides
        // the probe solely for the commit-group histogram.
        {{"fig1-redundancy",
          "Fig. 1 probe incl. the commit-group histogram collector"},
         "fig1-probe",
         [](SimConfig &c) {
             c.mech.equalityPred = true;
             c.mech.rsep = RsepConfig::idealLarge();
         }},
        {{"rsep+zp", "RSEP incl. zero-prediction bars (Fig. 5 arm)"}, "rsep",
         [](SimConfig &c) { c.mech.zeroPred = true; }},
        {{"rsep+vpred+zp",
          "RSEP + D-VTAGE incl. zero-prediction bars (Fig. 5 arm)"},
         "rsep+vpred", [](SimConfig &c) { c.mech.zeroPred = true; }},
        // Limit study: the rsep arm's window with the predictor replaced
        // by the oracle and the ISRB widened so the sharing substrate
        // does not clip the limit.
        {{"rsep-oracle",
          "oracle equality prediction: perfect pair finding, no "
          "validation (limit study)"},
         "baseline",
         [](SimConfig &c) {
             c.mech.moveElim = true;
             c.mech.oracleEq = true;
             c.mech.rsep = RsepConfig::idealLarge();
             c.mech.rsep.isrbEntries = 512;
         }},
    };
    return entries;
}

const RegistryEntry *
findEntry(const std::string &name)
{
    for (const RegistryEntry &e : registry())
        if (e.info.name == name)
            return &e;
    return nullptr;
}

/** @p e's fields over its base chain, unsized. */
SimConfig
buildArm(const RegistryEntry &e)
{
    SimConfig c = e.base ? buildArm(*findEntry(e.base)) : SimConfig{};
    e.edit(c);
    c.label = e.info.name;
    return c;
}

// -------------------------------------------------- section dispatching

constexpr const char *sectionNames[] = {"sim", "core", "mech", "rsep",
                                        "vp"};

constexpr const char *sectionList =
    "[scenario], [workload], [sim], [core], [mech], [rsep] or [vp]";

/** Visit the fields of one named section of @p cfg. False when the
 *  section is unknown. */
template <class V>
bool
visitSection(SimConfig &cfg, const std::string &section, V &&v)
{
    if (section == "sim") {
        visitFields(cfg, v);
        return true;
    }
    if (section == "core") {
        visitFields(cfg.core, v);
        return true;
    }
    if (section == "mech") {
        visitFields(cfg.mech, v);
        return true;
    }
    if (section == "rsep") {
        visitFields(cfg.mech.rsep, v);
        return true;
    }
    if (section == "vp") {
        visitFields(cfg.mech.vp, v);
        return true;
    }
    return false;
}

/** The canonical config body (no [scenario] header): the serializer's
 *  payload and the configHash input. */
std::string
serializeBody(const SimConfig &cfg)
{
    SimConfig copy = cfg; // visitFields takes mutable refs.
    std::ostringstream os;
    FieldWriter emit{os};
    for (const char *section : sectionNames) {
        os << "[" << section << "]\n";
        visitSection(copy, section, emit);
    }
    return os.str();
}

/** Apply key = value in @p section. Empty return = success. */
std::string
applySectionKey(SimConfig &cfg, const std::string &section,
                const std::string &key, const std::string &value)
{
    FieldReader apply{key, value, false, {}};
    if (!visitSection(cfg, section, apply))
        return "unknown section '[" + section + "]' (expected " +
               sectionList + ")";
    std::string err =
        apply.diagnostic("in [" + section + "]", section + "." + key);
    if (err.empty() && section == "sim" && key == "checkpoints" &&
        cfg.checkpoints == 0)
        err = "bad value '" + value +
              "' for sim.checkpoints (expected at least 1)";
    return err;
}

} // namespace

const std::vector<ScenarioInfo> &
registeredScenarios()
{
    static const std::vector<ScenarioInfo> infos = [] {
        std::vector<ScenarioInfo> v;
        for (const auto &e : registry())
            v.push_back(e.info);
        return v;
    }();
    return infos;
}

std::optional<Scenario>
findScenario(const std::string &name)
{
    const RegistryEntry *e = findEntry(name);
    if (!e)
        return std::nullopt;
    SimConfig c = buildArm(*e);
    c.applyEnv();
    return Scenario{name, c};
}

ScenarioParse
parseScenarioText(const std::string &text, const std::string &origin)
{
    ScenarioParse out;

    struct Building
    {
        Scenario sc;
        std::string label; ///< explicit `label =`, applied at flush so
                           ///< a later `base =` cannot clobber it.
        bool open = false;
        bool explicitLabel = false;
    } cur;

    struct BuildingWorkload
    {
        wl::WorkloadSpec spec;
        bool open = false;
        bool haveParams = false; ///< archetype or base seen.
    } curWl;

    auto fail = [&](int line, const std::string &msg) {
        out.error = origin + ":" + std::to_string(line) + ": " + msg;
        out.scenarios.clear();
        out.workloads.clear();
        return out;
    };
    auto flush = [&]() -> std::string {
        if (cur.open) {
            if (cur.sc.name.empty())
                return "scenario is missing a 'name' key";
            // Both engines book into the same equality counters.
            const core::MechConfig &m = cur.sc.config.mech;
            if (m.oracleEq && m.equalityPred)
                return "scenario '" + cur.sc.name +
                       "' enables both oracle_eq and equality_pred (an "
                       "arm measures one equality mechanism)";
            cur.sc.config.label =
                cur.explicitLabel ? cur.label : cur.sc.name;
            out.scenarios.push_back(std::move(cur.sc));
            cur = Building{};
        }
        if (curWl.open) {
            if (curWl.spec.name.empty())
                return "workload is missing a 'name' key";
            if (!curWl.haveParams)
                return "workload '" + curWl.spec.name +
                       "' needs an 'archetype' or 'base' key";
            out.workloads.push_back(std::move(curWl.spec));
            curWl = BuildingWorkload{};
        }
        return {};
    };

    std::istringstream is(text);
    std::string raw, section;
    int lineno = 0;
    while (std::getline(is, raw)) {
        ++lineno;
        size_t cut = raw.find_first_of("#;");
        std::string line = trimmed(cut == std::string::npos
                                       ? raw
                                       : raw.substr(0, cut));
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                return fail(lineno, "malformed section header '" + line +
                                        "'");
            section = trimmed(line.substr(1, line.size() - 2));
            if (section == "scenario" || section == "workload") {
                std::string err = flush();
                if (!err.empty())
                    return fail(lineno, err);
                (section == "scenario" ? cur.open : curWl.open) = true;
                // The arm's one sizing; `base =` replaces the config
                // with a registry arm sized the same way.
                if (section == "scenario")
                    cur.sc.config.applyEnv();
            } else {
                bool known = false;
                for (const char *s : sectionNames)
                    known = known || section == s;
                if (!known)
                    return fail(lineno, "unknown section '[" + section +
                                            "]' (expected " +
                                            sectionList + ")");
                if (curWl.open)
                    return fail(lineno,
                                "section '[" + section +
                                    "]' is not valid inside a "
                                    "[workload] block");
                if (!cur.open)
                    return fail(lineno, "section '[" + section +
                                            "]' before any [scenario]");
            }
            continue;
        }

        size_t eq = line.find('=');
        if (eq == std::string::npos)
            return fail(lineno,
                        "expected 'key = value', got '" + line + "'");
        std::string key = trimmed(line.substr(0, eq));
        std::string value = trimmed(line.substr(eq + 1));
        if (key.empty())
            return fail(lineno, "empty key");
        if (!cur.open && !curWl.open)
            return fail(lineno, "key '" + key +
                                    "' before any [scenario] or "
                                    "[workload]");

        if (curWl.open) {
            if (key == "name") {
                curWl.spec.name = value;
            } else if (key == "base") {
                auto base = wl::findWorkloadSpec(value);
                if (!base) {
                    // Earlier definitions in this same file are valid
                    // bases even when not registered yet.
                    for (const wl::WorkloadSpec &w : out.workloads)
                        if (w.name == value || wl::workloadKey(w) == value)
                            base = w;
                }
                if (!base)
                    return fail(lineno, "unknown base workload '" + value +
                                            "' (see --list-workloads)");
                curWl.spec.params = base->params;
                curWl.haveParams = true;
            } else if (key == "archetype") {
                if (!wl::setArchetype(curWl.spec, value)) {
                    std::string all;
                    for (const std::string &a : wl::archetypeNames())
                        all += (all.empty() ? "" : ", ") + a;
                    return fail(lineno, "unknown archetype '" + value +
                                            "' (expected one of " + all +
                                            ")");
                }
                curWl.haveParams = true;
            } else {
                if (!curWl.haveParams)
                    return fail(lineno,
                                "key '" + key +
                                    "' before the workload's "
                                    "'archetype' (or 'base') key");
                std::string err;
                if (!wl::applyWorkloadKey(curWl.spec, key, value, &err))
                    return fail(lineno, err);
            }
            continue;
        }

        if (section == "scenario") {
            if (key == "name") {
                cur.sc.name = value;
            } else if (key == "label") {
                cur.label = value;
                cur.explicitLabel = true;
            } else if (key == "base") {
                auto base = findScenario(value);
                if (!base)
                    return fail(lineno, "unknown base scenario '" + value +
                                            "' (see --list-scenarios)");
                cur.sc.config = base->config;
            } else {
                return fail(lineno,
                            "unknown key '" + key +
                                "' in [scenario] (expected name, base "
                                "or label)");
            }
            continue;
        }

        std::string err =
            applySectionKey(cur.sc.config, section, key, value);
        if (!err.empty())
            return fail(lineno, err);
    }

    std::string err = flush();
    if (!err.empty())
        return fail(lineno, err);
    if (out.scenarios.empty() && out.workloads.empty() &&
        out.error.empty())
        out.error = origin + ": no [scenario] or [workload] found";
    return out;
}

ScenarioParse
parseScenarioFile(const std::string &path)
{
    std::string text;
    if (!envelope::readFile(path, text)) {
        ScenarioParse out;
        out.error = path + ": cannot open scenario file";
        return out;
    }
    return parseScenarioText(text, path);
}

std::string
serializeScenario(const Scenario &s)
{
    std::ostringstream os;
    os << "[scenario]\n";
    os << "name = " << s.name << "\n";
    if (s.config.label != s.name)
        os << "label = " << s.config.label << "\n";
    os << serializeBody(s.config);
    return os.str();
}

std::string
serializeScenarios(const std::vector<Scenario> &list)
{
    std::string out;
    for (size_t i = 0; i < list.size(); ++i) {
        if (i)
            out += "\n";
        out += serializeScenario(list[i]);
    }
    return out;
}

std::string
configHash(const SimConfig &cfg)
{
    // FNV-1a 64 over the canonical body: stable across runs, label-
    // independent, and sensitive to every covered field.
    return hex64(fnv1a64(serializeBody(cfg)));
}

bool
applyScenarioKey(SimConfig &cfg, const std::string &dotted_key,
                 const std::string &value, std::string *err)
{
    size_t dot = dotted_key.find('.');
    if (dot == std::string::npos) {
        if (err)
            *err = "key '" + dotted_key +
                   "' is not of the form section.key";
        return false;
    }
    std::string msg = applySectionKey(cfg, dotted_key.substr(0, dot),
                                      dotted_key.substr(dot + 1), value);
    if (!msg.empty()) {
        if (err)
            *err = msg;
        return false;
    }
    return true;
}

} // namespace rsep::sim
