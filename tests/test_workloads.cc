/**
 * @file
 * Workload-registry tests: the 29 suite benchmarks as registry data
 * (byte-identical to the old factory ladder), the stable workload
 * hash/key identity, runtime registration and overrides, the
 * `[workload]` scenario-file grammar, and — pinned with golden values —
 * the suite benchmarks' shard assignments and result-cache keys, which
 * this refactor must not move.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/result_cache.hh"
#include "sim/scenario.hh"
#include "sim/shard.hh"
#include "wl/emulator.hh"
#include "wl/suite.hh"
#include "wl/workload_spec.hh"

namespace rsep::wl
{
namespace
{

/** Run @p w for @p n committed-path records. */
std::vector<DynRecord>
streamOf(const Workload &w, u32 phase, size_t n)
{
    Emulator em(w.program);
    em.resetArchState();
    w.init(em, phase);
    std::vector<DynRecord> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(em.step());
    return out;
}

void
expectSameStream(const Workload &a, const Workload &b, size_t n = 512)
{
    ASSERT_EQ(a.program.size(), b.program.size());
    auto sa = streamOf(a, 1, n);
    auto sb = streamOf(b, 1, n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sa[i].staticIdx, sb[i].staticIdx) << i;
        EXPECT_EQ(sa[i].result, sb[i].result) << i;
        EXPECT_EQ(sa[i].effAddr, sb[i].effAddr) << i;
        EXPECT_EQ(sa[i].taken, sb[i].taken) << i;
    }
}

TEST(WorkloadRegistry, SuiteSpecsMatchSuiteNames)
{
    ASSERT_EQ(suiteSpecs().size(), 29u);
    ASSERT_EQ(suiteNames().size(), 29u);
    for (size_t i = 0; i < suiteSpecs().size(); ++i)
        EXPECT_EQ(suiteSpecs()[i].name, suiteNames()[i]);
}

TEST(WorkloadRegistry, SuiteKeysAreBareNames)
{
    // The run-cell key of every suite benchmark is its bare name: the
    // identity the PR 3 shard partition and result cache key on.
    for (const WorkloadSpec &spec : suiteSpecs()) {
        EXPECT_EQ(workloadKey(spec), spec.name);
        auto key = resolveWorkloadKey(spec.name);
        ASSERT_TRUE(key.has_value()) << spec.name;
        EXPECT_EQ(*key, spec.name);
    }
}

TEST(WorkloadRegistry, WorkloadHashesAreStable)
{
    // Golden pins: a changed hash silently retires every recorded
    // trace and reshuffles custom-workload cache/shard identities.
    auto hashOf = [](const std::string &name) {
        auto spec = findWorkloadSpec(name);
        return spec ? workloadHash(*spec) : std::string("<unknown>");
    };
    EXPECT_EQ(hashOf("perlbench"), "722bba3d894130fe");
    EXPECT_EQ(hashOf("bzip2"), "30991f3bff0cd984");
    EXPECT_EQ(hashOf("mcf"), "df2a039a07de8e54");
}

TEST(WorkloadRegistry, SuiteShardAssignmentsArePinned)
{
    // Golden shard assignments of suite run cells under a fixed config
    // hash (pure FNV over strings — must never move; grown sweeps and
    // this refactor rely on stable assignment).
    const std::string cfg = "2ca460ee67616cb1";
    EXPECT_EQ(sim::shardOf("mcf", cfg, 4), 3u);
    EXPECT_EQ(sim::shardOf("hmmer", cfg, 4), 0u);
    EXPECT_EQ(sim::shardOf("perlbench", cfg, 4), 0u);
    EXPECT_EQ(sim::shardOf("xalancbmk", cfg, 4), 2u);
    EXPECT_EQ(sim::shardOf("mcf", cfg, 7), 2u);
    EXPECT_EQ(sim::shardOf("hmmer", cfg, 7), 3u);
    EXPECT_EQ(sim::shardOf("libquantum", cfg, 7), 3u);
    EXPECT_EQ(sim::shardOf("dealII", cfg, 7), 5u);
}

TEST(WorkloadRegistry, SuiteCacheKeysArePinned)
{
    // The on-disk cache record location of a suite cell is unchanged
    // by the workload refactor (bare benchmark name in the path).
    sim::ResultCache cache("/tmp/unused-root");
    sim::CacheKey key{"mcf", "2ca460ee67616cb1", 3, 0x5eed};
    EXPECT_EQ(cache.cellPath(key),
              "/tmp/unused-root/mcf/2ca460ee67616cb1-p3-s"
              "0000000000005eed.cell");
}

TEST(WorkloadRegistry, BuildMatchesDirectFactories)
{
    // Registry-built suite workloads are the same programs + init as
    // the old suite.cc factory ladder produced.
    expectSameStream(makeWorkload("mcf"),
                     makePointerChase("mcf", {.nodes = 1 << 16}));
    expectSameStream(makeWorkload("hmmer"),
                     makeDynProg("hmmer", {.clampDuty = 45}));
    expectSameStream(makeWorkload("wrf"),
                     makeSparseSolver("wrf", {.rows = 1 << 11,
                                              .nnzPerRow = 16,
                                              .vpFriendly = true}));
}

TEST(WorkloadRegistry, ArchetypeTableIsComplete)
{
    EXPECT_EQ(archetypeNames().size(),
              std::variant_size_v<WorkloadParams>);
    std::set<std::string> seen;
    for (const std::string &a : archetypeNames())
        EXPECT_TRUE(seen.insert(a).second) << "duplicate " << a;
    WorkloadSpec spec;
    spec.name = "x";
    for (const std::string &a : archetypeNames()) {
        EXPECT_TRUE(setArchetype(spec, a));
        EXPECT_EQ(archetypeName(spec.params), a);
    }
    EXPECT_FALSE(setArchetype(spec, "no-such-archetype"));
}

TEST(WorkloadRegistry, ApplyAndSerializeRoundTrip)
{
    WorkloadSpec spec;
    spec.name = "custom-chase";
    ASSERT_TRUE(setArchetype(spec, "pointer_chase"));
    std::string err;
    EXPECT_TRUE(applyWorkloadKey(spec, "nodes", "4096", &err)) << err;
    EXPECT_TRUE(applyWorkloadKey(spec, "cost_alphabet", "17", &err)) << err;
    EXPECT_FALSE(applyWorkloadKey(spec, "grid_cells", "1", &err));
    EXPECT_NE(err.find("unknown key"), std::string::npos);
    EXPECT_FALSE(applyWorkloadKey(spec, "nodes", "banana", &err));
    EXPECT_NE(err.find("bad value"), std::string::npos);

    // Serialize -> parse -> identical spec (name, archetype, params).
    std::string text = serializeWorkload(spec);
    sim::ScenarioParse parsed = sim::parseScenarioText(text, "<rt>");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_EQ(parsed.workloads.size(), 1u);
    EXPECT_EQ(parsed.workloads[0].name, spec.name);
    EXPECT_EQ(workloadHash(parsed.workloads[0]), workloadHash(spec));
    EXPECT_EQ(serializeWorkload(parsed.workloads[0]), text);
}

TEST(WorkloadRegistry, HashCoversParamsButNotName)
{
    WorkloadSpec a{"one", StencilParams{.gridCells = 512, .zeroPct = 10}};
    WorkloadSpec b{"two", StencilParams{.gridCells = 512, .zeroPct = 10}};
    WorkloadSpec c{"one", StencilParams{.gridCells = 512, .zeroPct = 11}};
    EXPECT_EQ(workloadHash(a), workloadHash(b));
    EXPECT_NE(workloadHash(a), workloadHash(c));
}

TEST(WorkloadRegistry, RegisterAndOverride)
{
    // A new custom workload keys as name@hash and resolves by name.
    WorkloadSpec custom{"wl-test-custom",
                        GateSimParams{.stateWords = 1024}};
    std::string key = registerWorkload(custom);
    EXPECT_EQ(key, custom.name + "@" + workloadHash(custom));
    EXPECT_EQ(resolveWorkloadKey("wl-test-custom").value_or(""), key);
    EXPECT_EQ(resolveWorkloadKey(key).value_or(""), key);
    ASSERT_TRUE(findWorkloadSpec(key).has_value());
    EXPECT_EQ(findWorkloadSpec(key)->name, "wl-test-custom");

    // Re-registering a pristine suite spec is a no-op on identity.
    for (const WorkloadSpec &s : suiteSpecs())
        if (s.name == "lbm") {
            EXPECT_EQ(registerWorkload(s), "lbm");
        }
    EXPECT_EQ(resolveWorkloadKey("lbm").value_or(""), "lbm");

    // Overriding a suite name shifts name lookups to a hash-qualified
    // key; the pristine suite benchmark stays reachable by... nothing
    // ambiguous: the override owns the name, by design.
    WorkloadSpec bigger{"lbm", StreamingParams{.arrayLen = 1 << 18}};
    std::string okey = registerWorkload(bigger);
    EXPECT_EQ(okey, "lbm@" + workloadHash(bigger));
    EXPECT_EQ(resolveWorkloadKey("lbm").value_or(""), okey);
    EXPECT_EQ(std::get<StreamingParams>(findWorkloadSpec("lbm")->params)
                  .arrayLen,
              u64{1} << 18);

    // Re-registering the pristine spec restores the bare-name mapping.
    for (const WorkloadSpec &s : suiteSpecs())
        if (s.name == "lbm")
            registerWorkload(s);
    EXPECT_EQ(resolveWorkloadKey("lbm").value_or(""), "lbm");

    // makeWorkload accepts qualified keys.
    Workload w = makeWorkload(okey);
    EXPECT_EQ(w.name, "lbm");
    EXPECT_EQ(w.archetype, "streaming");
}

TEST(WorkloadScenarioFiles, WorkloadBlockGrammar)
{
    const char *text = R"(
# workload-only files are valid
[workload]
name = chase-big
base = mcf
nodes = 32768

[workload]
name = tiny-stencil
archetype = stencil
grid_cells = 4096
zero_pct = 75
)";
    sim::ScenarioParse p = sim::parseScenarioText(text, "<wl>");
    ASSERT_TRUE(p.ok()) << p.error;
    EXPECT_TRUE(p.scenarios.empty());
    ASSERT_EQ(p.workloads.size(), 2u);
    EXPECT_EQ(p.workloads[0].name, "chase-big");
    EXPECT_EQ(archetypeName(p.workloads[0].params), "pointer_chase");
    EXPECT_EQ(std::get<PointerChaseParams>(p.workloads[0].params).nodes,
              32768u);
    // base = mcf carried the non-overridden fields.
    EXPECT_EQ(std::get<PointerChaseParams>(p.workloads[0].params)
                  .costAlphabet,
              61u);
    EXPECT_EQ(std::get<StencilParams>(p.workloads[1].params).zeroPct,
              75u);
}

TEST(WorkloadScenarioFiles, MixedScenarioAndWorkload)
{
    const char *text = R"(
[workload]
name = wl-mixed
archetype = streaming
array_len = 2048

[scenario]
name = arm-mixed
base = baseline
[sim]
checkpoints = 1
)";
    sim::ScenarioParse p = sim::parseScenarioText(text, "<mix>");
    ASSERT_TRUE(p.ok()) << p.error;
    ASSERT_EQ(p.scenarios.size(), 1u);
    ASSERT_EQ(p.workloads.size(), 1u);
    EXPECT_EQ(p.scenarios[0].name, "arm-mixed");
    EXPECT_EQ(p.scenarios[0].config.checkpoints, 1u);
    EXPECT_EQ(p.workloads[0].name, "wl-mixed");
}

TEST(WorkloadScenarioFiles, BaseMayReferenceEarlierDefinition)
{
    const char *text = R"(
[workload]
name = wl-first
archetype = dyn_prog
cols = 128

[workload]
name = wl-second
base = wl-first
clamp_duty = 99
)";
    sim::ScenarioParse p = sim::parseScenarioText(text, "<chain>");
    ASSERT_TRUE(p.ok()) << p.error;
    ASSERT_EQ(p.workloads.size(), 2u);
    const auto &second = std::get<DynProgParams>(p.workloads[1].params);
    EXPECT_EQ(second.cols, 128u);
    EXPECT_EQ(second.clampDuty, 99u);
}

TEST(WorkloadScenarioFiles, GrammarDiagnostics)
{
    auto errOf = [](const char *text) {
        return sim::parseScenarioText(text, "<bad>").error;
    };
    EXPECT_NE(errOf("[workload]\narchetype = stencil\n")
                  .find("missing a 'name'"),
              std::string::npos);
    EXPECT_NE(errOf("[workload]\nname = x\n")
                  .find("'archetype' or 'base'"),
              std::string::npos);
    EXPECT_NE(errOf("[workload]\nname = x\narchetype = bogus\n")
                  .find("unknown archetype"),
              std::string::npos);
    EXPECT_NE(errOf("[workload]\nname = x\nnodes = 5\n")
                  .find("before the workload's"),
              std::string::npos);
    EXPECT_NE(errOf("[workload]\nname = x\nbase = not-a-workload\n")
                  .find("unknown base workload"),
              std::string::npos);
    EXPECT_NE(errOf("[workload]\nname = x\narchetype = stencil\n"
                    "nodes = 5\n")
                  .find("unknown key"),
              std::string::npos);
    EXPECT_NE(errOf("[workload]\nname = x\n[sim]\n")
                  .find("not valid inside a [workload]"),
              std::string::npos);
    EXPECT_NE(errOf("").find("no [scenario] or [workload]"),
              std::string::npos);
}

} // namespace
} // namespace rsep::wl
