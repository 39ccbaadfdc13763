/**
 * @file
 * Compare all five mechanism arms of the paper (zero prediction, move
 * elimination, RSEP, value prediction, RSEP+VP) on a set of workloads
 * and print the per-benchmark speedups and coverages -- a compact
 * interactive version of Figs. 4 and 5.
 *
 * Usage: mechanism_comparison [bench ...]   (default: a 6-bench subset)
 */

#include <iostream>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace rsep;
    using core::PipelineStats;

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
    spec.report = [](const bench::HarnessResult &r) {
        std::cout
            << "\n--- speedup over baseline (cf. paper Fig. 4) ---\n";
        sim::printSpeedupTable(std::cout, r.rows, r.configs);

        std::cout << "\n--- coverage, % of committed instructions "
                     "(cf. paper Fig. 5) ---\n";
        std::cout << "columns: rsep arm [zidiom|move|dist|dist-ld] then "
                     "rsep+vp arm [dist|vp|vp-ld]\n";
        sim::printPctTable(
            std::cout, r.rows,
            {"zidiom", "move", "dist", "dist-ld", "dist+", "vp+",
             "vp-ld+"},
            [](const sim::MatrixRow &row, size_t col) {
                const sim::RunResult &rsep_run = row.byConfig[3];
                const sim::RunResult &both_run = row.byConfig[5];
                switch (col) {
                  case 0:
                    return 100 * rsep_run.ratioOfCommitted(
                                     &PipelineStats::zeroIdiomElim);
                  case 1:
                    return 100 * rsep_run.ratioOfCommitted(
                                     &PipelineStats::moveElim);
                  case 2:
                    return 100 * (rsep_run.ratioOfCommitted(
                                      &PipelineStats::distPredOther) +
                                  rsep_run.ratioOfCommitted(
                                      &PipelineStats::distPredLoad));
                  case 3:
                    return 100 * rsep_run.ratioOfCommitted(
                                     &PipelineStats::distPredLoad);
                  case 4:
                    return 100 * (both_run.ratioOfCommitted(
                                      &PipelineStats::distPredOther) +
                                  both_run.ratioOfCommitted(
                                      &PipelineStats::distPredLoad));
                  case 5:
                    return 100 * (both_run.ratioOfCommitted(
                                      &PipelineStats::valuePredOther) +
                                  both_run.ratioOfCommitted(
                                      &PipelineStats::valuePredLoad));
                  case 6:
                    return 100 * both_run.ratioOfCommitted(
                                     &PipelineStats::valuePredLoad);
                  default:
                    return 0.0;
                }
            });
    };
    return bench::runHarness(argc, argv, spec);
}
