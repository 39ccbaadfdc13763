/**
 * @file
 * Reproduces Fig. 7: ideal RSEP (42.6KB predictor, very large
 * structures, free validation) vs the realistic 10.8KB implementation
 * (10.1KB predictor, 128-entry FIFO history, 24-entry ISRB, sampled
 * training at threshold 63, issue-twice-any-FU validation), plus the
 * accuracy/coverage summary of Section VI-B.
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
    spec.name = "fig7_realistic";
    spec.description =
        "Reproduces Fig. 7: ideal vs realistic RSEP, plus the Section "
        "VI-B\naccuracy/coverage summary.";
    spec.defaultScenarios = {"baseline", "rsep", "rsep-realistic"};
    spec.report = [](const bench::ReportInput &in) {
        // Each arm's storage on its own core's register file and ROB.
        auto storage = [&](size_t arm) {
            const sim::SimConfig &cfg = in.configs[arm];
            return equality::describeStorage(
                cfg.mech.rsep, cfg.core.intPregs + cfg.core.fpPregs,
                cfg.core.robSize);
        };
        std::cout << "=== Fig. 7: ideal vs realistic RSEP ===\n";
        std::cout << "ideal:     " << storage(1) << "\n";
        std::cout << "realistic: " << storage(2) << "\n\n";
        in.printSpeedups(std::cout);

        // Section VI-B summary: accuracy > 99.5%, coverage of eligible
        // instructions ~28.5% (eligible = register producers).
        u64 correct = 0, wrong = 0, covered = 0, eligible = 0;
        for (const std::string &bench : in.benchmarks) {
            const sim::StatRow &row = in.row(bench, 2);
            auto count = [&](const char *name) {
                return sim::counterOf(row, name);
            };
            correct += count("rsep_correct");
            wrong += count("rsep_mispredicts");
            covered += count("dist_pred_load") + count("dist_pred_other") +
                       count("move_elim") + count("zero_idiom_elim");
            eligible += count("committed_producers");
        }
        std::printf("\nrealistic RSEP summary across the suite:\n");
        std::printf("  prediction accuracy: %.3f%% (paper: > 99.5%%)\n",
                    correct + wrong
                        ? 100.0 * double(correct) / double(correct + wrong)
                        : 100.0);
        std::printf("  coverage of eligible (reg-producing) instructions: "
                    "%.1f%% (paper: 28.5%% average)\n",
                    eligible ? 100.0 * double(covered) / double(eligible)
                             : 0.0);
    };
    return bench::runHarness(argc, argv, spec);
}
