/**
 * @file
 * Reproduces Table I (simulator configuration overview) and prints the
 * storage accounting the paper reports for its structures. With
 * --scenario / --scenario-file, describes those arms instead of the
 * baseline (no simulation is run).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "rsep/costmodel.hh"

int
main(int argc, char **argv)
{
    using namespace rsep;

    bench::HarnessSpec spec;
    spec.name = "table1_config";
    spec.description =
        "Prints Table I (simulator configuration overview) and the "
        "paper's structure\nstorage accounting; describes scenarios "
        "instead of simulating them.";
    spec.runsMatrix = false;
    spec.custom = [](const bench::DriverContext &ctx) {
        std::vector<sim::Scenario> scenarios = ctx.scenarios;
        if (scenarios.empty())
            scenarios.push_back(*sim::findScenario("baseline"));

        for (size_t i = 0; i < scenarios.size(); ++i) {
            const sim::SimConfig &cfg = scenarios[i].config;
            if (i)
                std::cout << "\n";
            if (!ctx.scenarios.empty())
                std::cout << "--- scenario " << scenarios[i].name
                          << " (config hash " << sim::configHash(cfg)
                          << ") ---\n";
            std::cout << sim::describeTable1(cfg) << "\n";

            unsigned pregs = cfg.core.intPregs + cfg.core.fpPregs;

            std::cout
                << "RSEP structure storage (paper Sections IV-C/VI-B):\n";
            std::cout << "  ideal:     "
                      << equality::describeStorage(
                             equality::RsepConfig::idealLarge(), pregs,
                             cfg.core.robSize)
                      << "\n";
            std::cout << "  realistic: "
                      << equality::describeStorage(
                             equality::RsepConfig::realistic(), pregs,
                             cfg.core.robSize)
                      << "\n";

            std::cout << "\nComparator budget (Section IV-B2/IV-D2):\n";
            std::printf("  256-entry FIFO @ commit width %u: %llu "
                        "comparators (paper: 2076)\n",
                        cfg.core.commitWidth,
                        (unsigned long long)equality::fifoComparators(
                            256, cfg.core.commitWidth));
            std::printf("  128-entry FIFO @ commit width %u: %llu "
                        "comparators\n",
                        cfg.core.commitWidth,
                        (unsigned long long)equality::fifoComparators(
                            128, cfg.core.commitWidth));

            double hrf_frac =
                equality::hrfAreaFraction(16, 8, 64, 8, 8, 14);
            std::printf("\nHRF area vs PRF (Zyuban-Kogge trend, Section "
                        "IV-D1): %.2f%% (paper: < 5%%)\n",
                        100.0 * hrf_frac);
        }
        return 0;
    };
    return bench::runHarness(argc, argv, spec);
}
