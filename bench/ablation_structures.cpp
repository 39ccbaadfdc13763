/**
 * @file
 * Ablations from Sections IV and VI-A on the paper's highlight
 * benchmarks:
 *  - FIFO history depth sweep (32/128/256/1024) + the DDT alternative
 *    (Section VI-A2: 128 entries suffice; FIFO beats the 16KB DDT);
 *  - ISRB size sweep (Section VI-A3: 24 entries are enough);
 *  - hash width sweep (Section IV-A: 14-bit fold; power-of-two widths
 *    collide more, hurting training via false pairs);
 *  - distance predictor size (42.6KB ideal vs 10.1KB realistic).
 *
 * Every arm is a registered scenario plus dotted-key overrides, so the
 * sweeps exercise exactly the path scenario files use. All sweeps run
 * as one matrix through the shared arm path (so --seed, --workload,
 * --shard and --connect apply); the dumps hold the baseline once plus
 * every arm.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/logging.hh"

namespace
{

using namespace rsep;

/** A sweep arm: the `rsep` scenario + overrides. */
sim::Scenario
rsepArm(const std::string &label,
        const std::vector<std::pair<std::string, std::string>> &overrides)
{
    sim::Scenario sc = *sim::findScenario("rsep");
    sc.name = label;
    sc.config.label = label;
    for (const auto &[key, value] : overrides) {
        std::string err;
        if (!sim::applyScenarioKey(sc.config, key, value, &err))
            rsep_fatal("%s", err.c_str());
    }
    return sc;
}

/** One ablation: the labels of its arms in the shared matrix. */
struct Sweep
{
    std::string title;
    std::string paperShape;
    std::vector<std::string> labels;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace rsep;

    bench::HarnessSpec spec;
    spec.name = "ablation_structures";
    spec.description =
        "Structure ablations (Sections IV, VI-A) on the paper's "
        "highlight benchmarks:\nFIFO depth vs DDT, ISRB size, hash "
        "width, distance predictor size.";
    spec.custom = [](const bench::DriverContext &ctx) {
        // Every sweep's arms run as one matrix after the shared
        // baseline column; each sweep then reports its own columns.
        std::vector<sim::Scenario> arms{*sim::findScenario("baseline")};
        std::vector<Sweep> sweeps;
        auto sweep = [&](const std::string &title, const char *shape,
                         std::vector<sim::Scenario> sweep_arms) {
            Sweep &sw = sweeps.emplace_back(Sweep{title, shape, {}});
            for (sim::Scenario &arm : sweep_arms) {
                sw.labels.push_back(arm.config.label);
                arms.push_back(std::move(arm));
            }
        };

        // --- history depth / DDT (Section VI-A2) ---
        {
            std::vector<sim::Scenario> depth;
            for (unsigned d : {32u, 128u, 256u, 1024u})
                depth.push_back(
                    rsepArm("fifo-" + std::to_string(d),
                            {{"rsep.history_depth", std::to_string(d)}}));
            depth.push_back(rsepArm("ddt-16KB", {{"rsep.use_ddt", "true"}}));
            sweep("history depth sweep + DDT (VI-A2)",
                  "paper shape: 128 entries reach most of the potential "
                  "(32 suffices except hmmer/xalancbmk); the FIFO is >= "
                  "the DDT by 0-2.5 points.",
                  std::move(depth));
        }

        // --- ISRB size (Section VI-A3) ---
        {
            std::vector<sim::Scenario> isrb;
            for (unsigned entries : {4u, 8u, 24u, 64u})
                isrb.push_back(rsepArm(
                    "isrb-" + std::to_string(entries),
                    {{"rsep.isrb_entries", std::to_string(entries)}}));
            sweep("ISRB size sweep (VI-A3)",
                  "paper shape: 24 entries of two 6-bit counters are not "
                  "detrimental vs larger buffers.",
                  std::move(isrb));
        }

        // --- hash width (Section IV-A) ---
        {
            std::vector<sim::Scenario> hash;
            for (unsigned bits : {8u, 10u, 14u, 16u})
                hash.push_back(
                    rsepArm("hash-" + std::to_string(bits),
                            {{"rsep.hash_bits", std::to_string(bits)}}));
            sweep("hash width sweep (IV-A)",
                  "paper shape: 14 bits behave like full compare; narrow "
                  "and power-of-two folds add false pairs.",
                  std::move(hash));
        }

        // --- predictor size (IV-C vs VI-B) ---
        sweep("distance predictor size (IV-C/VI-B)",
              "paper shape: good results persist at ~10KB.",
              {rsepArm("pred-42.6KB", {}),
               rsepArm("pred-10.1KB", {{"rsep.ideal_predictor", "false"}})});

        bench::HarnessResult r = bench::runArms(
            ctx, std::move(arms), bench::highlightBenchmarks());
        return bench::reportArms(ctx, r, [&](const bench::ReportInput &in) {
            for (const Sweep &sw : sweeps) {
                // The baseline column, then this sweep's arms.
                std::vector<std::string> cols{in.configs[0].label};
                cols.insert(cols.end(), sw.labels.begin(), sw.labels.end());
                std::cout << "\n=== " << sw.title << " ===\n";
                in.printSpeedups(std::cout, cols);
                std::cout << sw.paperShape << "\n";
            }
        });
    };
    return bench::runHarness(argc, argv, spec);
}
