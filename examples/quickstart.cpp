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
    spec.report = [](const bench::HarnessResult &r) {
        const sim::SimConfig &base = r.configs[0];
        const sim::SimConfig &rsep_cfg = r.configs[1];

        for (const auto &mrow : r.rows) {
            std::printf("=== RSEP quickstart: %s ===\n",
                        mrow.benchmark.c_str());
            std::printf(
                "core: 8-wide OoO, 192-entry ROB (paper Table I)\n");
            std::printf("%s\n",
                        equality::describeStorage(rsep_cfg.mech.rsep,
                                                  base.core.intPregs +
                                                      base.core.fpPregs,
                                                  base.core.robSize)
                            .c_str());

            const sim::RunResult &rb = mrow.byConfig[0];
            const sim::RunResult &rr = mrow.byConfig[1];

            double cov_load =
                rr.ratioOfCommitted(&core::PipelineStats::distPredLoad);
            double cov_other =
                rr.ratioOfCommitted(&core::PipelineStats::distPredOther);
            u64 correct = rr.sum(&core::PipelineStats::rsepCorrect);
            u64 wrong = rr.sum(&core::PipelineStats::rsepMispredicts);
            double acc = correct + wrong
                ? 100.0 * static_cast<double>(correct) /
                      static_cast<double>(correct + wrong)
                : 100.0;

            std::printf(
                "\nbaseline IPC (hmean of %zu checkpoints): %.3f\n",
                rb.phases.size(), rb.ipcHmean());
            std::printf("RSEP     IPC (hmean of %zu checkpoints): %.3f\n",
                        rr.phases.size(), rr.ipcHmean());
            std::printf("speedup: %.2f%%\n", sim::speedupPct(rr, rb));
            std::printf("equality coverage: %.2f%% of committed insts "
                        "(loads %.2f%%, others %.2f%%)\n",
                        100.0 * (cov_load + cov_other), 100.0 * cov_load,
                        100.0 * cov_other);
            std::printf("equality prediction accuracy: %.3f%%\n", acc);
            std::printf(
                "move elimination: %.2f%%, zero idioms: %.2f%%\n",
                100.0 *
                    rr.ratioOfCommitted(&core::PipelineStats::moveElim),
                100.0 * rr.ratioOfCommitted(
                            &core::PipelineStats::zeroIdiomElim));
        }
    };
    return bench::runHarness(argc, argv, spec);
}
