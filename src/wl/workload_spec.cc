#include "wl/workload_spec.hh"

#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/field_codec.hh"
#include "common/fnv.hh"

namespace rsep::wl
{

namespace
{

/** Archetype-name <-> variant-alternative binding and build dispatch.
 *  The table order must match the WorkloadParams alternative order. */
template <class P> struct ArchetypeTraits;

#define RSEP_ARCHETYPE(Params, nm, factory)                                \
    template <> struct ArchetypeTraits<Params>                             \
    {                                                                      \
        static constexpr const char *name = nm;                            \
        static Workload                                                    \
        make(const std::string &n, const Params &p)                        \
        {                                                                  \
            return factory(n, p);                                          \
        }                                                                  \
    };

RSEP_ARCHETYPE(PointerChaseParams, "pointer_chase", makePointerChase)
RSEP_ARCHETYPE(DynProgParams, "dyn_prog", makeDynProg)
RSEP_ARCHETYPE(RecomputeParams, "recompute", makeRecompute)
RSEP_ARCHETYPE(GateSimParams, "gate_sim", makeGateSim)
RSEP_ARCHETYPE(EventQueueParams, "event_queue", makeEventQueue)
RSEP_ARCHETYPE(XmlParseParams, "xml_parse", makeXmlParse)
RSEP_ARCHETYPE(InterpParams, "interp", makeInterp)
RSEP_ARCHETYPE(BlockSortParams, "block_sort", makeBlockSort)
RSEP_ARCHETYPE(StencilParams, "stencil", makeStencil)
RSEP_ARCHETYPE(DenseLinAlgParams, "dense_linalg", makeDenseLinAlg)
RSEP_ARCHETYPE(StridedMediaParams, "strided_media", makeStridedMedia)
RSEP_ARCHETYPE(BranchyGameParams, "branchy_game", makeBranchyGame)
RSEP_ARCHETYPE(SparseSolverParams, "sparse_solver", makeSparseSolver)
RSEP_ARCHETYPE(RegularZeroParams, "regular_zero", makeRegularZero)
RSEP_ARCHETYPE(StreamingParams, "streaming", makeStreaming)

#undef RSEP_ARCHETYPE

template <size_t... I>
std::vector<std::string>
buildArchetypeNames(std::index_sequence<I...>)
{
    return {ArchetypeTraits<
        std::variant_alternative_t<I, WorkloadParams>>::name...};
}

constexpr size_t numArchetypes = std::variant_size_v<WorkloadParams>;

template <size_t... I>
bool
defaultParamsByIndex(WorkloadParams &out, size_t idx,
                     std::index_sequence<I...>)
{
    bool hit = false;
    ((idx == I
          ? (out = std::variant_alternative_t<I, WorkloadParams>{},
             hit = true)
          : false),
     ...);
    return hit;
}

/** The hash/serializer payload: archetype plus every param field. */
std::string
serializeWorkloadBody(const WorkloadSpec &spec)
{
    WorkloadSpec copy = spec; // visitFields takes mutable refs.
    std::ostringstream os;
    os << "archetype = " << archetypeName(copy.params) << "\n";
    FieldWriter emit{os};
    visitParamFields(copy, emit);
    return os.str();
}

/** Suite spec by name; nullptr when the name is not a suite benchmark. */
const WorkloadSpec *
suiteSpecByName(const std::string &name)
{
    for (const WorkloadSpec &s : suiteSpecs())
        if (s.name == name)
            return &s;
    return nullptr;
}

// ------------------------------------------------------- dynamic overlay

struct Overlay
{
    std::mutex mtx;
    std::map<std::string, WorkloadSpec> byKey;   ///< key -> spec.
    std::map<std::string, std::string> nameToKey; ///< latest per name.
};

Overlay &
overlay()
{
    static Overlay o;
    return o;
}

} // namespace

const std::vector<std::string> &
archetypeNames()
{
    static const std::vector<std::string> names =
        buildArchetypeNames(std::make_index_sequence<numArchetypes>{});
    return names;
}

const std::string &
archetypeName(const WorkloadParams &params)
{
    return archetypeNames().at(params.index());
}

bool
setArchetype(WorkloadSpec &spec, const std::string &archetype)
{
    const std::vector<std::string> &names = archetypeNames();
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == archetype)
            return defaultParamsByIndex(
                spec.params, i, std::make_index_sequence<numArchetypes>{});
    }
    return false;
}

bool
applyWorkloadKey(WorkloadSpec &spec, const std::string &key,
                 const std::string &value, std::string *err)
{
    FieldReader apply{key, value, false, {}};
    visitParamFields(spec, apply);
    std::string msg = apply.diagnostic(
        "for archetype '" + archetypeName(spec.params) + "'", key);
    if (!msg.empty() && err)
        *err = msg;
    return msg.empty();
}

std::string
serializeWorkload(const WorkloadSpec &spec)
{
    std::ostringstream os;
    os << "[workload]\n";
    os << "name = " << spec.name << "\n";
    os << serializeWorkloadBody(spec);
    return os.str();
}

std::string
workloadHash(const WorkloadSpec &spec)
{
    return hex64(fnv1a64(serializeWorkloadBody(spec)));
}

std::string
workloadKey(const WorkloadSpec &spec)
{
    const WorkloadSpec *suite = suiteSpecByName(spec.name);
    if (suite &&
        serializeWorkloadBody(*suite) == serializeWorkloadBody(spec))
        return spec.name;
    return spec.name + "@" + workloadHash(spec);
}

std::string
registerWorkload(const WorkloadSpec &spec)
{
    std::string key = workloadKey(spec);
    Overlay &o = overlay();
    std::lock_guard<std::mutex> lk(o.mtx);
    if (key == spec.name && suiteSpecByName(spec.name)) {
        // Pristine suite benchmark: nothing to overlay — and if the
        // name was overridden earlier, this restores the suite spec
        // for name lookups.
        o.nameToKey.erase(spec.name);
        return key;
    }
    o.byKey[key] = spec;
    o.nameToKey[spec.name] = key; // latest definition wins name lookups.
    return key;
}

std::optional<std::string>
resolveWorkloadKey(const std::string &name)
{
    Overlay &o = overlay();
    {
        std::lock_guard<std::mutex> lk(o.mtx);
        if (o.byKey.count(name))
            return name; // already a qualified key.
        auto it = o.nameToKey.find(name);
        if (it != o.nameToKey.end())
            return it->second;
    }
    if (suiteSpecByName(name))
        return name;
    return std::nullopt;
}

std::optional<WorkloadSpec>
findWorkloadSpec(const std::string &name)
{
    Overlay &o = overlay();
    {
        std::lock_guard<std::mutex> lk(o.mtx);
        auto it = o.byKey.find(name);
        if (it != o.byKey.end())
            return it->second;
        auto nit = o.nameToKey.find(name);
        if (nit != o.nameToKey.end())
            return o.byKey.at(nit->second);
    }
    if (const WorkloadSpec *suite = suiteSpecByName(name))
        return *suite;
    return std::nullopt;
}

std::vector<WorkloadInfo>
listWorkloads()
{
    std::vector<WorkloadInfo> out;
    for (const WorkloadSpec &s : suiteSpecs()) {
        // An overlay override of a suite name shadows the suite entry
        // for name lookups; reflect what a run would actually use.
        std::optional<WorkloadSpec> eff = findWorkloadSpec(s.name);
        const WorkloadSpec &spec = eff ? *eff : s;
        out.push_back({workloadKey(spec), spec.name,
                       archetypeName(spec.params), workloadHash(spec),
                       workloadKey(spec) != s.name ||
                           serializeWorkloadBody(spec) !=
                               serializeWorkloadBody(s)});
    }
    Overlay &o = overlay();
    std::lock_guard<std::mutex> lk(o.mtx);
    for (const auto &[key, spec] : o.byKey) {
        auto nit = o.nameToKey.find(spec.name);
        if (suiteSpecByName(spec.name) && nit != o.nameToKey.end() &&
            nit->second == key)
            continue; // already listed as the suite override.
        out.push_back({key, spec.name, archetypeName(spec.params),
                       workloadHash(spec), true});
    }
    return out;
}

Workload
buildWorkload(const WorkloadSpec &spec)
{
    return std::visit(
        [&](const auto &p) -> Workload {
            using P = std::decay_t<decltype(p)>;
            return ArchetypeTraits<P>::make(spec.name, p);
        },
        spec.params);
}

} // namespace rsep::wl
