/**
 * @file
 * Compare all five mechanism arms of the paper (zero prediction, move
 * elimination, RSEP, value prediction, RSEP+VP) on a set of workloads
 * and print the per-benchmark speedups and coverages -- a compact
 * interactive version of Figs. 4 and 5.
 *
 * Usage: mechanism_comparison [bench ...]   (default: a 6-bench subset)
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace rsep;

    bench::HarnessSpec spec;
    spec.name = "mechanism_comparison";
    spec.description =
        "Compare the paper's five mechanism arms on a set of workloads "
        "(compact\ninteractive version of Figs. 4 and 5).";
    spec.defaultScenarios = {"baseline",  "zero-pred", "move-elim",
                             "rsep",      "vpred",     "rsep+vpred"};
    spec.benchmarks = {"mcf",      "dealII",  "hmmer",
                       "libquantum", "omnetpp", "perlbench"};
    spec.positionalBenchmarks = true;
    spec.report = [](const bench::ReportInput &in) {
        std::cout
            << "\n--- speedup over baseline (cf. paper Fig. 4) ---\n";
        in.printSpeedups(std::cout);

        std::cout << "\n--- coverage, % of committed instructions "
                     "(cf. paper Fig. 5) ---\n";
        std::cout << "columns: rsep arm [zidiom|move|dist|dist-ld] then "
                     "rsep+vp arm [dist|vp|vp-ld]\n";
        std::printf("%-12s", "benchmark");
        for (const char *col :
             {"zidiom", "move", "dist", "dist-ld", "dist+", "vp+", "vp-ld+"})
            std::printf("%18s", col);
        std::printf("\n");
        for (const std::string &bench : in.benchmarks) {
            const sim::StatRow &rsep_run = in.row(bench, 3);
            const sim::StatRow &both_run = in.row(bench, 5);
            std::printf("%-12s", bench.c_str());
            for (double pct :
                 {100 * sim::committedShare(rsep_run, "zero_idiom_elim"),
                  100 * sim::committedShare(rsep_run, "move_elim"),
                  100 * (sim::committedShare(rsep_run, "dist_pred_other") +
                         sim::committedShare(rsep_run, "dist_pred_load")),
                  100 * sim::committedShare(rsep_run, "dist_pred_load"),
                  100 * (sim::committedShare(both_run, "dist_pred_other") +
                         sim::committedShare(both_run, "dist_pred_load")),
                  100 * (sim::committedShare(both_run, "value_pred_other") +
                         sim::committedShare(both_run, "value_pred_load")),
                  100 * sim::committedShare(both_run, "value_pred_load")})
                std::printf("%17.2f%%", pct);
            std::printf("\n");
        }
    };
    return bench::runHarness(argc, argv, spec);
}
