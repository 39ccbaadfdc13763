/**
 * @file
 * Scenario-layer tests: the registry's arms must keep their pinned
 * config hashes, every arm must get the one run sizing, the text
 * format must round-trip losslessly through parse -> serialize ->
 * parse, diagnostics must name the offending line, and the config hash
 * must be stable, label-independent and field-sensitive.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <utility>

#include "sim/scenario.hh"

namespace rsep::sim
{
namespace
{

/** Full-field equality via the canonical serialization + label. */
void
expectSameConfig(const SimConfig &a, const SimConfig &b)
{
    EXPECT_EQ(configHash(a), configHash(b));
    EXPECT_EQ(a.label, b.label);
}

TEST(ScenarioRegistry, ConfigHashesArePinned)
{
    // The default-sizing config hash of every registered arm, in
    // registry order. These are the result-cache and golden-dump keys:
    // redefining an arm must not move them.
    unsetenv("RSEP_SIM_SCALE");
    unsetenv("RSEP_CHECKPOINTS");
    const std::pair<const char *, const char *> pinned[] = {
        {"baseline", "484afae92e03fccc"},
        {"zero-pred", "928e3342cd00b81b"},
        {"move-elim", "73432508a7793df3"},
        {"rsep", "506bf8c4045d635c"},
        {"vpred", "f2e763f8e241b5c9"},
        {"rsep+vpred", "1c42f249efcb7a0b"},
        {"rsep-val-ideal", "506bf8c4045d635c"},
        {"rsep-val-2x-lock", "a73bb1e2ddcd756e"},
        {"rsep-val-2x-any", "4add9c6d305e94af"},
        {"rsep-val-2x-sample15", "b9f5d9ee965177bb"},
        {"rsep-val-2x-sample63", "da4f1206f8fe867c"},
        {"rsep-realistic", "0a25cf0ab2949985"},
        {"fig1-probe", "d338c35b97044a67"},
        {"fig1-redundancy", "ab84f00e6a91a5a8"},
        {"rsep+zp", "ef1ca2b6658ad8ed"},
        {"rsep+vpred+zp", "3cd9524fd0782a40"},
        {"rsep-oracle", "0a4a5e4edf282a4a"},
    };
    const std::vector<ScenarioInfo> &infos = registeredScenarios();
    ASSERT_EQ(infos.size(), std::size(pinned));
    for (size_t i = 0; i < infos.size(); ++i) {
        EXPECT_EQ(infos[i].name, pinned[i].first);
        auto sc = findScenario(pinned[i].first);
        ASSERT_TRUE(sc.has_value()) << pinned[i].first;
        EXPECT_EQ(configHash(sc->config), pinned[i].second)
            << pinned[i].first;
    }
    EXPECT_FALSE(findScenario("no-such-arm").has_value());
}

TEST(ScenarioFormat, ParseSerializeParseRoundTrip)
{
    const char *text =
        "# golden round-trip input\n"
        "[scenario]\n"
        "name = tuned\n"
        "base = rsep-realistic\n"
        "[sim]\n"
        "checkpoints = 4\n"
        "seed = 0xbeef\n"
        "[core]\n"
        "rob_size = 256\n"
        "iq_size = 97   ; trailing comment\n"
        "[mech]\n"
        "zero_pred = true\n"
        "[rsep]\n"
        "history_depth = 256\n"
        "validation = issue2x-lock-fu\n"
        "conf_kind = fpc3\n";

    ScenarioParse p1 = parseScenarioText(text, "golden.scn");
    ASSERT_TRUE(p1.ok()) << p1.error;
    ASSERT_EQ(p1.scenarios.size(), 1u);
    const Scenario &sc = p1.scenarios[0];
    EXPECT_EQ(sc.name, "tuned");
    EXPECT_EQ(sc.config.label, "tuned");
    EXPECT_EQ(sc.config.checkpoints, 4u);
    EXPECT_EQ(sc.config.seed, 0xbeefu);
    EXPECT_EQ(sc.config.core.robSize, 256u);
    EXPECT_EQ(sc.config.core.iqSize, 97u);
    EXPECT_TRUE(sc.config.mech.zeroPred);
    EXPECT_EQ(sc.config.mech.rsep.historyDepth, 256u);
    EXPECT_EQ(sc.config.mech.rsep.validation,
              equality::ValidationPolicy::Issue2xLockFu);
    EXPECT_EQ(sc.config.mech.rsep.confKind, ConfidenceKind::Fpc3);
    // Inherited from the rsep-realistic base.
    EXPECT_FALSE(sc.config.mech.rsep.idealPredictor);
    EXPECT_TRUE(sc.config.mech.rsep.sampling);

    std::string s1 = serializeScenario(sc);
    ScenarioParse p2 = parseScenarioText(s1, "reserialized");
    ASSERT_TRUE(p2.ok()) << p2.error;
    ASSERT_EQ(p2.scenarios.size(), 1u);
    std::string s2 = serializeScenario(p2.scenarios[0]);

    EXPECT_EQ(s1, s2); // lossless: canonical form is a fixpoint.
    expectSameConfig(sc.config, p2.scenarios[0].config);
}

TEST(ScenarioFormat, MultiScenarioFilesAndLabels)
{
    const char *text =
        "[scenario]\n"
        "name = a\n"
        "[scenario]\n"
        "name = b\n"
        "label = pretty-b\n"
        "[sim]\n"
        "checkpoints = 1\n";
    ScenarioParse p = parseScenarioText(text);
    ASSERT_TRUE(p.ok()) << p.error;
    ASSERT_EQ(p.scenarios.size(), 2u);
    EXPECT_EQ(p.scenarios[0].config.label, "a");
    EXPECT_EQ(p.scenarios[1].name, "b");
    EXPECT_EQ(p.scenarios[1].config.label, "pretty-b");

    // Non-mirroring labels survive the round-trip too.
    ScenarioParse p2 = parseScenarioText(serializeScenarios(p.scenarios));
    ASSERT_TRUE(p2.ok()) << p2.error;
    ASSERT_EQ(p2.scenarios.size(), 2u);
    EXPECT_EQ(p2.scenarios[1].config.label, "pretty-b");

    // An explicit label wins whatever its position relative to 'base'
    // (the base config carries its own label, which must not leak).
    ScenarioParse p3 = parseScenarioText(
        "[scenario]\nname = x\nlabel = pretty\nbase = rsep\n");
    ASSERT_TRUE(p3.ok()) << p3.error;
    EXPECT_EQ(p3.scenarios[0].config.label, "pretty");
    ScenarioParse p4 =
        parseScenarioText("[scenario]\nname = y\nbase = rsep\n");
    ASSERT_TRUE(p4.ok()) << p4.error;
    EXPECT_EQ(p4.scenarios[0].config.label, "y")
        << "base label must not leak into an unlabelled scenario";
}

TEST(ScenarioFormat, Diagnostics)
{
    auto errorOf = [](const char *text) {
        ScenarioParse p = parseScenarioText(text, "t.scn");
        EXPECT_FALSE(p.ok());
        return p.error;
    };

    EXPECT_NE(errorOf("[scenario]\nname = x\n[rsep]\nbogus = 1\n")
                  .find("t.scn:4: unknown key 'bogus' in [rsep]"),
              std::string::npos);
    EXPECT_NE(errorOf("[scenario]\nname = x\n[sim]\ncheckpoints = soon\n")
                  .find("expected an unsigned 32-bit integer"),
              std::string::npos);
    EXPECT_NE(errorOf("[scenario]\nname = x\n[mech]\nzero_pred = treu\n")
                  .find("expected a boolean"),
              std::string::npos);
    EXPECT_NE(errorOf("[scenario]\nname = x\n[rsep]\nvalidation = later\n")
                  .find("issue2x-any-fu"),
              std::string::npos);
    EXPECT_NE(errorOf("[scenario]\nname = x\n[turbo]\nz = 1\n")
                  .find("unknown section"),
              std::string::npos);
    EXPECT_NE(errorOf("[sim]\ncheckpoints = 1\n")
                  .find("before any [scenario]"),
              std::string::npos);
    EXPECT_NE(errorOf("[scenario]\nname = x\nnot a key value line\n")
                  .find("expected 'key = value'"),
              std::string::npos);
    EXPECT_NE(errorOf("[scenario]\n[sim]\ncheckpoints = 1\n")
                  .find("missing a 'name'"),
              std::string::npos);
    EXPECT_NE(errorOf("[scenario]\nname = x\nbase = nope\n")
                  .find("unknown base scenario 'nope'"),
              std::string::npos);
    EXPECT_NE(errorOf("# only a comment\n").find("no [scenario]"),
              std::string::npos);
    // A run of no checkpoints cannot run: rejected where it is written,
    // in a file and through the dotted-key face alike.
    EXPECT_NE(errorOf("[scenario]\nname = x\nbase = rsep\n[sim]\n"
                      "checkpoints = 0\n")
                  .find("t.scn:5: bad value '0' for sim.checkpoints "
                        "(expected at least 1)"),
              std::string::npos);
    SimConfig cfg;
    std::string err;
    EXPECT_FALSE(applyScenarioKey(cfg, "sim.checkpoints", "0", &err));
    EXPECT_EQ(cfg.checkpoints, 0u) << "the dotted face reports, not hides";
    EXPECT_NE(err.find("expected at least 1"), std::string::npos);
    // One arm measures one equality mechanism: the oracle and RSEP
    // engines book into the same counters. Reported where the arm's
    // block closes, at the next block or at the end of the file.
    EXPECT_NE(errorOf("[scenario]\nname = x\nbase = rsep\n[mech]\n"
                      "oracle_eq = true\n[scenario]\nname = y\n")
                  .find("t.scn:6: scenario 'x' enables both oracle_eq "
                        "and equality_pred"),
              std::string::npos);
    EXPECT_NE(errorOf("[scenario]\nname = x\nbase = rsep-oracle\n[mech]\n"
                      "equality_pred = true\n")
                  .find("t.scn:5: scenario 'x' enables both oracle_eq "
                        "and equality_pred"),
              std::string::npos);
    // 'base' is a [scenario]-section key: written after a field
    // section (where it could clobber overrides) it is rejected.
    EXPECT_NE(errorOf("[scenario]\nname = x\n[sim]\ncheckpoints = 9\n"
                      "base = baseline\n")
                  .find("unknown key 'base' in [sim]"),
              std::string::npos);
}

TEST(ScenarioFormat, ScenariosAreIndependent)
{
    // A later scenario starts from scratch, not from its predecessor.
    const char *text =
        "[scenario]\nname = x\n[sim]\ncheckpoints = 9\n"
        "[scenario]\nname = y\nbase = baseline\n";
    ScenarioParse p = parseScenarioText(text);
    ASSERT_TRUE(p.ok()) << p.error;
    ASSERT_EQ(p.scenarios.size(), 2u);
    EXPECT_EQ(p.scenarios[0].config.checkpoints, 9u);
    EXPECT_NE(p.scenarios[1].config.checkpoints, 9u);
    expectSameConfig(p.scenarios[1].config,
                     [] {
                         SimConfig c = findScenario("baseline")->config;
                         c.label = "y";
                         return c;
                     }());
}

TEST(ScenarioFormat, EveryArmIsSizedOnce)
{
    // The one run sizing reaches every arm exactly once: a registry
    // arm, a file arm with `base =` and a file arm without one. A
    // file's [sim] keys then override the sized values verbatim.
    setenv("RSEP_SIM_SCALE", "0.01", 1);
    setenv("RSEP_CHECKPOINTS", "1", 1);
    SimConfig registered = findScenario("baseline")->config;
    ScenarioParse p = parseScenarioText(
        "[scenario]\nname = baseline\n"
        "[scenario]\nname = based\nbase = baseline\n"
        "[scenario]\nname = fixed\n[sim]\nmeasure_insts = 5000\n");
    unsetenv("RSEP_SIM_SCALE");
    unsetenv("RSEP_CHECKPOINTS");
    ASSERT_TRUE(p.ok()) << p.error;
    ASSERT_EQ(p.scenarios.size(), 3u);

    EXPECT_EQ(registered.warmupInsts, 320u);
    EXPECT_EQ(registered.measureInsts, 1600u);
    EXPECT_EQ(registered.checkpoints, 1u);
    EXPECT_EQ(configHash(registered), "603a4fdd6d55a787");
    expectSameConfig(p.scenarios[0].config, registered);
    EXPECT_EQ(configHash(p.scenarios[1].config), configHash(registered));
    EXPECT_EQ(p.scenarios[2].config.warmupInsts, 320u);
    EXPECT_EQ(p.scenarios[2].config.measureInsts, 5000u);
    EXPECT_EQ(p.scenarios[2].config.checkpoints, 1u);
}

TEST(ScenarioHash, StableLabelIndependentFieldSensitive)
{
    SimConfig a = findScenario("rsep")->config;
    SimConfig b = findScenario("rsep")->config;
    EXPECT_EQ(configHash(a), configHash(b));
    EXPECT_EQ(configHash(a).size(), 16u);

    b.label = "renamed";
    EXPECT_EQ(configHash(a), configHash(b)) << "hash ignores the label";

    b.mech.rsep.historyDepth += 1;
    EXPECT_NE(configHash(a), configHash(b));

    SimConfig c = findScenario("rsep")->config;
    c.checkpoints += 1;
    EXPECT_NE(configHash(a), configHash(c))
        << "run sizing is part of the result-cache key";
}

TEST(ScenarioOverrides, DottedKeysDriveTheSweepDrivers)
{
    SimConfig cfg = findScenario("rsep")->config;
    std::string err;
    EXPECT_TRUE(applyScenarioKey(cfg, "rsep.history_depth", "64", &err))
        << err;
    EXPECT_EQ(cfg.mech.rsep.historyDepth, 64u);
    EXPECT_TRUE(applyScenarioKey(cfg, "core.rob_size", "320", &err));
    EXPECT_EQ(cfg.core.robSize, 320u);
    EXPECT_TRUE(applyScenarioKey(cfg, "sim.seed", "7", &err));
    EXPECT_EQ(cfg.seed, 7u);

    EXPECT_FALSE(applyScenarioKey(cfg, "nodots", "1", &err));
    EXPECT_FALSE(applyScenarioKey(cfg, "rsep.nope", "1", &err));
    EXPECT_NE(err.find("unknown key"), std::string::npos);
    EXPECT_FALSE(applyScenarioKey(cfg, "rsep.sampling", "perhaps", &err));
}

TEST(ScenarioFormat, VpSectionDrivesDvtageGeometry)
{
    // D-VTAGE sweeps from a file, no rebuild: scalar keys, the nested
    // ITTAGE geometry with an itage_ prefix, and array-valued keys as
    // comma lists (unspecified tail components are 0).
    const char *text =
        "[scenario]\n"
        "name = small-vp\n"
        "base = vpred\n"
        "[vp]\n"
        "lvt_bits = 10\n"
        "delta_bits = 8\n"
        "itage_base_bits = 9\n"
        "itage_num_tagged = 4\n"
        "itage_hist_lens = 1, 2, 4, 8\n"
        "itage_tag_bits = 9,9,10,10\n"
        "itage_conf_kind = fpc3\n";
    ScenarioParse p = parseScenarioText(text, "vp.scn");
    ASSERT_TRUE(p.ok()) << p.error;
    const pred::DvtageParams &vp = p.scenarios[0].config.mech.vp;
    EXPECT_EQ(vp.lvtBits, 10u);
    EXPECT_EQ(vp.deltaBits, 8u);
    EXPECT_EQ(vp.itage.baseBits, 9u);
    EXPECT_EQ(vp.itage.numTagged, 4u);
    EXPECT_EQ(vp.itage.histLens,
              (std::array<unsigned, pred::maxItageComps>{1, 2, 4, 8, 0, 0,
                                                         0, 0}));
    EXPECT_EQ(vp.itage.tagBits,
              (std::array<unsigned, pred::maxItageComps>{9, 9, 10, 10, 0,
                                                         0, 0, 0}));
    EXPECT_EQ(vp.itage.confKind, ConfidenceKind::Fpc3);

    // Geometry is part of the config identity.
    EXPECT_NE(configHash(p.scenarios[0].config),
              configHash(findScenario("vpred")->config));

    // Canonical serialization round-trips the arrays.
    ScenarioParse p2 =
        parseScenarioText(serializeScenario(p.scenarios[0]), "rt");
    ASSERT_TRUE(p2.ok()) << p2.error;
    expectSameConfig(p.scenarios[0].config, p2.scenarios[0].config);
    EXPECT_EQ(p2.scenarios[0].config.mech.vp.itage.histLens,
              vp.itage.histLens);

    // Dotted overrides reach the section too (the sweep-driver face).
    SimConfig cfg = findScenario("vpred")->config;
    std::string err;
    EXPECT_TRUE(applyScenarioKey(cfg, "vp.itage_hist_lens", "3,6", &err))
        << err;
    EXPECT_EQ(cfg.mech.vp.itage.histLens[0], 3u);
    EXPECT_EQ(cfg.mech.vp.itage.histLens[1], 6u);
    EXPECT_EQ(cfg.mech.vp.itage.histLens[2], 0u);

    // Array diagnostics: too many entries, junk, an empty list.
    auto errorOf = [](const char *t) {
        ScenarioParse bad = parseScenarioText(t, "t.scn");
        EXPECT_FALSE(bad.ok());
        return bad.error;
    };
    EXPECT_NE(errorOf("[scenario]\nname = x\n[vp]\n"
                      "itage_hist_lens = 1,2,3,4,5,6,7,8,9\n")
                  .find("comma list"),
              std::string::npos);
    EXPECT_NE(errorOf("[scenario]\nname = x\n[vp]\n"
                      "itage_hist_lens = 1,two\n")
                  .find("comma list"),
              std::string::npos);
    EXPECT_NE(
        errorOf("[scenario]\nname = x\n[vp]\nitage_hist_lens =\n")
            .find("comma list"),
        std::string::npos);
}

TEST(ScenarioFormat, RegistryScenariosSerializeLosslessly)
{
    // Every registered arm must survive the text format unchanged —
    // the property that lets scenario files fully replace the old
    // hard-coded config vectors.
    for (const ScenarioInfo &info : registeredScenarios()) {
        auto sc = findScenario(info.name);
        ASSERT_TRUE(sc.has_value()) << info.name;
        ScenarioParse p = parseScenarioText(serializeScenario(*sc),
                                            "roundtrip:" + info.name);
        ASSERT_TRUE(p.ok()) << p.error;
        ASSERT_EQ(p.scenarios.size(), 1u);
        EXPECT_EQ(sc->config.label, info.name) << "label is the name";
        EXPECT_EQ(p.scenarios[0].name, sc->name);
        expectSameConfig(p.scenarios[0].config, sc->config);
    }
}

} // namespace
} // namespace rsep::sim
