/**
 * @file
 * Cross-scenario golden pin of the stat-export byte stream.
 *
 * The PR 5 cycle-loop overhaul (ring-buffer ROB, event-driven wakeup,
 * O(1) memory-order checks) promises *byte-identical* stat dumps —
 * same issue order, same tie-breaks — for every registered scenario.
 * This test pins that promise: for each registered scenario (and each
 * arm of the CI smoke scenario file) it runs a small fixed-size matrix
 * over two benchmarks and hashes the canonical CSV dump. The golden
 * stat rows are the pre-overhaul simulator's at exactly this sizing;
 * the hash also covers the config_hash column, so a change to the
 * config hash regenerates the table without changing a stat. Any
 * behavioural drift in the issue/validate/commit machinery shows up as
 * a hash mismatch with the offending scenario named.
 *
 * Regenerating (only legitimate when a PR *intentionally* changes
 * timing behaviour): RSEP_GOLDEN_REGEN=1 ./test_golden_dumps prints
 * the table to paste below.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <sstream>

#include <unistd.h>

#include "common/fnv.hh"
#include "sim/runner.hh"
#include "sim/scenario.hh"
#include "sim/stat_export.hh"

#ifndef RSEP_SOURCE_DIR
#define RSEP_SOURCE_DIR ".."
#endif

namespace rsep::sim
{
namespace
{

/** Golden (scenario -> CSV dump hash) table: the pre-overhaul
 *  simulator's stat rows under the current config hashes. Sizing:
 *  warmup 4000, measure 12000, 1 checkpoint, seed 0x5eed, benchmarks
 *  mcf + hmmer, single thread. */
const std::map<std::string, std::string> goldenHashes = {
    // clang-format off
    {"baseline",               "ffa4740de260edfd"},
    {"zero-pred",              "1e4a1ff0a2448fb8"},
    {"move-elim",              "9792ed2fcde782b9"},
    {"rsep",                   "d1bc1e8cac060ea2"},
    {"vpred",                  "377d0df3d7d6caf7"},
    {"rsep+vpred",             "7817781bbe8b74d2"},
    {"rsep-val-ideal",         "9373cbae4e1b4f1e"},
    {"rsep-val-2x-lock",       "2a9f335c62a66e9c"},
    {"rsep-val-2x-any",        "f688b235ec883a57"},
    {"rsep-val-2x-sample15",   "4bc4a4b7503af9f5"},
    {"rsep-val-2x-sample63",   "2ad4f932193e1623"},
    {"rsep-realistic",         "5a3ed6a087d02dfa"},
    {"fig1-probe",             "b866679ee8fcc26e"},
    {"fig1-redundancy",        "85ed4365358a58d0"},
    {"rsep+zp",                "2c785861ad9796a8"},
    {"rsep+vpred+zp",          "36ac9e8d6fbe9127"},
    {"rsep-oracle",            "c8f0c9b387ab657d"},
    {"ci_smoke:smoke-baseline","3d78919d4e5cf0bc"},
    {"ci_smoke:smoke-rsep",    "42513ea5da94ec36"},
    // clang-format on
};

constexpr u64 goldenWarmup = 4000;
constexpr u64 goldenMeasure = 12000;

std::vector<std::string>
goldenBenchmarks()
{
    return {"mcf", "hmmer"};
}

/** Run one scenario's golden matrix and return the CSV dump text.
 *  @p sampling optionally enables time-series sampling for the run —
 *  the dump must come out identical either way. */
std::string
dumpFor(const SimConfig &config, const SampleOptions &sampling = {})
{
    MatrixOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.sampling = sampling;
    std::vector<SimConfig> configs{config};
    std::vector<MatrixRow> rows =
        runMatrix(configs, goldenBenchmarks(), opts);
    std::vector<StatRow> stat_rows = collectStatRows(configs, rows);
    std::ostringstream os;
    CsvStatSink{}.write(os, stat_rows);
    return os.str();
}

/** The scenarios under golden pin: every registered arm at the fixed
 *  golden sizing, plus the CI smoke file's arms at their own sizing. */
std::vector<Scenario>
goldenScenarios()
{
    std::vector<Scenario> out;
    for (const ScenarioInfo &info : registeredScenarios()) {
        std::optional<Scenario> sc = findScenario(info.name);
        if (!sc)
            continue;
        sc->config.warmupInsts = goldenWarmup;
        sc->config.measureInsts = goldenMeasure;
        sc->config.checkpoints = 1;
        sc->config.seed = 0x5eed;
        out.push_back(std::move(*sc));
    }
    ScenarioParse smoke = parseScenarioFile(
        RSEP_SOURCE_DIR "/examples/scenarios/ci_smoke.scn");
    EXPECT_TRUE(smoke.ok()) << smoke.error;
    for (Scenario &sc : smoke.scenarios) {
        sc.name = "ci_smoke:" + sc.name;
        out.push_back(std::move(sc));
    }
    return out;
}

TEST(GoldenDumps, EveryScenarioByteIdenticalToPr4)
{
    const bool regen = std::getenv("RSEP_GOLDEN_REGEN") != nullptr;
    std::ostringstream table;
    for (const Scenario &sc : goldenScenarios()) {
        std::string csv = dumpFor(sc.config);
        std::string hash = hex64(fnv1a64(csv));
        if (regen) {
            table << "    {\"" << sc.name << "\", \"" << hash << "\"},\n";
            continue;
        }
        auto it = goldenHashes.find(sc.name);
        ASSERT_NE(it, goldenHashes.end())
            << "scenario '" << sc.name << "' has no golden hash; "
            << "regenerate with RSEP_GOLDEN_REGEN=1 and review the diff";
        EXPECT_EQ(it->second, hash)
            << "scenario '" << sc.name << "' no longer produces the "
            << "PR 4 stat dump.\nFirst 2000 bytes of the drifted "
            << "dump:\n"
            << csv.substr(0, 2000);
    }
    if (regen)
        std::printf("golden table:\n%s", table.str().c_str());
}

TEST(GoldenDumps, SamplingDoesNotPerturbTheDump)
{
    // --sample-every is observation, not intervention: with sampling
    // attached, the rsep arm's stat dump must still hash to its golden
    // value (the sampler only reads counters on the deterministic
    // cycle axis).
    std::optional<Scenario> sc = findScenario("rsep");
    ASSERT_TRUE(sc.has_value());
    sc->config.warmupInsts = goldenWarmup;
    sc->config.measureInsts = goldenMeasure;
    sc->config.checkpoints = 1;
    sc->config.seed = 0x5eed;

    SampleOptions sampling;
    sampling.every = 1000;
    sampling.dir = (std::filesystem::temp_directory_path() /
                    ("rsep-golden-samples-" + std::to_string(::getpid())))
                       .string();
    std::string csv = dumpFor(sc->config, sampling);
    std::error_code ec;
    std::filesystem::remove_all(sampling.dir, ec);

    EXPECT_EQ(hex64(fnv1a64(csv)), goldenHashes.at("rsep"))
        << "sampling perturbed the rsep stat dump";
}

} // namespace
} // namespace rsep::sim
