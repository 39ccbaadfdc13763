/**
 * @file
 * Reproduces Fig. 1: the ratio of committed instructions whose result
 * is zero (split loads / others, zero idioms excluded) and whose result
 * is already present in a live physical register, per benchmark.
 * Also prints the commit-group producer statistics backing the
 * Section IV-D comparator-sufficiency claim.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace rsep;

    bench::HarnessSpec spec;
    spec.name = "fig1_redundancy";
    spec.description =
        "Reproduces Fig. 1: result redundancy at commit (zero results "
        "and results\nalready live in the PRF), plus the commit-group "
        "producer histogram.";
    // The probe rides the baseline core; equality prediction is on
    // solely to collect the commit-group histogram.
    spec.defaultScenarios = {"fig1-redundancy"};
    spec.report = [](const bench::ReportInput &in) {
        std::printf("=== Fig. 1: result redundancy at commit ===\n");
        std::printf("%-12s %10s %10s %12s %12s %10s %10s\n", "benchmark",
                    "zero-ld%", "zero-oth%", "inPRF-ld%", "inPRF-oth%",
                    "grp>=6%", "grp=8%");

        for (const std::string &bench : in.benchmarks) {
            const sim::StatRow &row = in.row(bench, 0);
            auto count = [&](const std::string &name) {
                return sim::counterOf(row, name);
            };

            double insts = static_cast<double>(count("committed_insts"));
            auto pct = [&](const char *name) {
                return 100.0 * static_cast<double>(count(name)) / insts;
            };

            // Commit-group eligibility histogram: one counter per bucket.
            const std::string bucket = "commit_group_producers_";
            u64 cycles = 0, ge6 = 0;
            for (const auto &[name, n] : row.counters) {
                if (name.compare(0, bucket.size(), bucket) != 0)
                    continue;
                cycles += n;
                if (std::stoul(name.substr(bucket.size())) >= 6)
                    ge6 += n;
            }
            u64 eq8 = count(bucket + "8");
            double ge6pct = cycles ? 100.0 * ge6 / cycles : 0.0;
            double eq8pct = cycles ? 100.0 * eq8 / cycles : 0.0;

            std::printf(
                "%-12s %10.2f %10.2f %12.2f %12.2f %10.2f %10.2f\n",
                bench.c_str(), pct("fig1_zero_load"), pct("fig1_zero_other"),
                pct("fig1_in_prf_load"), pct("fig1_in_prf_other"), ge6pct,
                eq8pct);
        }
        std::printf(
            "\npaper shape: most benchmarks >=5%% redundant results; "
            "zeusmp/cactusADM ~20%% zero producers; lbm/gamess retire "
            "wide eligible groups.\n");
    };
    return bench::runHarness(argc, argv, spec);
}
