/**
 * @file
 * Quickstart: run one workload on the Table I core with and without
 * RSEP and print IPC, coverage and accuracy.
 *
 * Usage: quickstart [benchmark] (default: mcf)
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
    spec.name = "quickstart";
    spec.description =
        "Run one workload on the Table I core with and without RSEP and "
        "print IPC,\ncoverage and accuracy.";
    spec.defaultScenarios = {"baseline", "rsep"};
    spec.benchmarks = {"mcf"};
    spec.positionalBenchmarks = true;
    spec.report = [](const bench::ReportInput &in) {
        const sim::SimConfig &base = in.configs[0];
        const sim::SimConfig &rsep_cfg = in.configs[1];

        for (const std::string &bench : in.benchmarks) {
            std::printf("=== RSEP quickstart: %s ===\n", bench.c_str());
            std::printf(
                "core: 8-wide OoO, 192-entry ROB (paper Table I)\n");
            std::printf("%s\n",
                        equality::describeStorage(rsep_cfg.mech.rsep,
                                                  base.core.intPregs +
                                                      base.core.fpPregs,
                                                  base.core.robSize)
                            .c_str());

            const sim::StatRow &rb = in.row(bench, 0);
            const sim::StatRow &rr = in.row(bench, 1);
            auto share = [&](const char *name) {
                return sim::committedShare(rr, name);
            };

            double cov_load = share("dist_pred_load");
            double cov_other = share("dist_pred_other");
            u64 correct = sim::counterOf(rr, "rsep_correct");
            u64 wrong = sim::counterOf(rr, "rsep_mispredicts");
            double acc = correct + wrong
                ? 100.0 * static_cast<double>(correct) /
                      static_cast<double>(correct + wrong)
                : 100.0;
            sim::SpeedupGrid speedup;
            sim::speedupGrid(in.rows, {base.label, rsep_cfg.label}, {bench},
                             speedup);

            std::printf(
                "\nbaseline IPC (hmean of %zu checkpoints): %.3f\n",
                rb.checkpoints, rb.ipcHmean);
            std::printf("RSEP     IPC (hmean of %zu checkpoints): %.3f\n",
                        rr.checkpoints, rr.ipcHmean);
            if (speedup.bars.empty())
                std::printf("speedup: n/a (no usable baseline IPC)\n");
            else
                std::printf("speedup: %.2f%%\n", speedup.bars[0][0].pct);
            std::printf("equality coverage: %.2f%% of committed insts "
                        "(loads %.2f%%, others %.2f%%)\n",
                        100.0 * (cov_load + cov_other), 100.0 * cov_load,
                        100.0 * cov_other);
            std::printf("equality prediction accuracy: %.3f%%\n", acc);
            std::printf("move elimination: %.2f%%, zero idioms: %.2f%%\n",
                        100.0 * share("move_elim"),
                        100.0 * share("zero_idiom_elim"));
        }
    };
    return bench::runHarness(argc, argv, spec);
}
