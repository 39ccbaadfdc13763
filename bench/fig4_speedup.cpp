/**
 * @file
 * Reproduces Fig. 4: speedup over the baseline of zero prediction,
 * move elimination, RSEP (ideal validation, large history), value
 * prediction (D-VTAGE ~256KB) and RSEP+VP, across all 29 benchmarks.
 */

#include <iostream>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace rsep;

    bench::HarnessSpec spec;
    spec.name = "fig4_speedup";
    spec.description =
        "Reproduces Fig. 4: speedup over baseline of the paper's five "
        "mechanism arms\nacross all 29 benchmarks.";
    spec.defaultScenarios = {"baseline",  "zero-pred", "move-elim",
                             "rsep",      "vpred",     "rsep+vpred"};
    spec.report = [](const bench::ReportInput &in) {
        std::cout << "=== Fig. 4: speedup over baseline ===\n";
        in.printSpeedups(std::cout);
        std::cout << "\npaper shape: RSEP 5-11% in {mcf, dealII, hmmer, "
                     "libquantum, omnetpp, xalancbmk}; VP better in "
                     "{perlbench, wrf, xalancbmk}; zero pred only helps "
                     "gamess/libquantum; move elim only dealII/xalancbmk; "
                     "RSEP+VP >= max(RSEP, VP) except perlbench where VP "
                     "subsumes RSEP.\n";
    };
    return bench::runHarness(argc, argv, spec);
}
