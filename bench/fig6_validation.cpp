/**
 * @file
 * Reproduces Fig. 6: impact of the validation mechanism and of commit
 * sampling on RSEP. Arms: ideal validation, issue-twice locking the
 * instruction's FU, issue-twice to any FU (bypass network), and
 * issue-twice + sampling with start_train thresholds 15 and 63.
 */

#include <iostream>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace rsep;

    bench::HarnessSpec spec;
    spec.name = "fig6_validation";
    spec.description =
        "Reproduces Fig. 6: impact of the validation mechanism and of "
        "commit sampling\non RSEP.";
    spec.defaultScenarios = {
        "baseline",           "rsep-val-ideal",
        "rsep-val-2x-lock",   "rsep-val-2x-any",
        "rsep-val-2x-sample15", "rsep-val-2x-sample63"};
    spec.report = [](const bench::ReportInput &in) {
        std::cout << "=== Fig. 6: validation & sampling impact ===\n";
        in.printSpeedups(std::cout);
        std::cout << "\npaper shape: locking the FU hurts load-heavy "
                     "benchmarks badly (validation competes for load "
                     "ports); issuing to any FU ~= ideal; sampling with "
                     "threshold 15 causes a slowdown in bzip2 that "
                     "threshold 63 removes.\n";
    };
    return bench::runHarness(argc, argv, spec);
}
