/**
 * @file
 * Reproduces Fig. 5: percentage of committed instructions covered by
 * each mechanism. Two configurations per benchmark as in the paper:
 * RSEP alone, then VP on top of RSEP (bars split loads vs others).
 */

#include <cstdio>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace rsep;

    bench::HarnessSpec spec;
    spec.name = "fig5_coverage";
    spec.description =
        "Reproduces Fig. 5: % of committed instructions covered per "
        "mechanism\n(RSEP arm, then RSEP + VP arm, zero-pred bars "
        "included).";
    spec.defaultScenarios = {"rsep+zp", "rsep+vpred+zp"};
    spec.report = [](const bench::ReportInput &in) {
        std::printf(
            "=== Fig. 5: %% of committed instructions covered ===\n");
        std::printf("(first row per benchmark: RSEP; second: RSEP + VP)\n");
        std::printf("%-12s %8s %8s %8s %8s %8s %8s %8s %8s\n", "benchmark",
                    "zidiom", "move", "zp", "zp-ld", "dist", "dist-ld",
                    "vp", "vp-ld");

        // Percent of committed instructions.
        auto pct = [](const sim::StatRow &row, const char *name) {
            return 100.0 * static_cast<double>(sim::counterOf(row, name)) /
                   static_cast<double>(
                       sim::counterOf(row, "committed_insts"));
        };
        auto line = [&](const sim::StatRow &row) {
            std::printf(
                " %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
                pct(row, "zero_idiom_elim"), pct(row, "move_elim"),
                pct(row, "zero_pred_other"), pct(row, "zero_pred_load"),
                pct(row, "dist_pred_other"), pct(row, "dist_pred_load"),
                pct(row, "value_pred_other"), pct(row, "value_pred_load"));
        };

        for (const std::string &bench : in.benchmarks) {
            const sim::StatRow &both = in.row(bench, 1);
            std::printf("%-12s", bench.c_str());
            line(in.row(bench, 0));
            std::printf("%-12s", "");
            line(both);
            // Overlap diagnostic (perlbench: VP covers RSEP's catch).
            std::printf("%-12s rsep&vp-overlap: %.2f%%\n", "",
                        pct(both, "rsep_vp_overlap"));
        }
    };
    return bench::runHarness(argc, argv, spec);
}
