/**
 * @file
 * Authoring a custom workload with the public API: build a mini-ISA
 * program with ProgramBuilder, give it data, and measure how much a
 * registered scenario's mechanism set helps it.
 *
 * The kernel accumulates a checksum into a *saturating* counter (a
 * branchless min against a limit). While saturated, the min result
 * repeats every iteration, so equality prediction severs the
 * loop-carried recurrence -- the same physics behind the paper's
 * hmmer/dealII wins. A recomputed expression adds extra coverage.
 *
 * Usage: custom_kernel [--scenario NAME]   (default arm: rsep)
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/pipeline.hh"
#include "wl/emulator.hh"

namespace
{

using namespace rsep;

isa::Program
buildChecksumKernel()
{
    constexpr ArchReg Z = isa::zeroReg;

    isa::ProgramBuilder b("checksum");
    b.label("top");
    b.ldrx(1, 10, 20);       // v = data[i]
    b.eori(2, 1, 0x5a5a);    // t = v ^ K
    b.add(7, 3, 2);          // cand = sum + t
    b.cmplt(8, 9, 7);        // limit < cand ?
    b.sub(11, Z, 8);         // mask
    b.and_(12, 9, 11);
    b.eori(13, 11, -1);
    b.and_(14, 7, 13);
    b.orr(3, 12, 14);        // sum = min(cand, limit): repeats when
                             // saturated -> RSEP severs the recurrence
    b.ldrx(4, 10, 20);       // v again (spill reload)
    b.eori(5, 4, 0x5a5a);    // == t (recompute)
    b.add(6, 6, 5);          // check += t
    b.addi(20, 20, 1);
    b.bltu(20, 21, "top");
    b.movi(20, 0);
    b.lsri(3, 3, 2);         // leave saturation at each sweep wrap
    b.b("top");
    return b.build();
}

core::PipelineStats
runOnce(const isa::Program &prog, const sim::SimConfig &cfg)
{
    wl::Emulator em(prog);
    em.resetArchState();
    Rng rng(7);
    for (u64 i = 0; i < 4096; ++i)
        em.memory().write(0x100000 + i * 8, rng.next() & 0xffff);
    em.setReg(10, 0x100000);
    em.setReg(21, 4096);
    em.setReg(9, 40'000'000); // saturation limit.

    core::Pipeline pipe(cfg.core, cfg.mech, em, 99);
    pipe.run(60000);
    pipe.resetStats();
    pipe.run(120000);
    return pipe.stats();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rsep;

    bench::HarnessSpec spec;
    spec.name = "custom_kernel";
    spec.description =
        "Author a custom workload with the public API and measure how "
        "much a\nregistered scenario's mechanism set helps it (default "
        "arm: rsep).";
    spec.runsMatrix = false;
    spec.custom = [&spec](const bench::DriverContext &ctx) {
        if (ctx.scenarios.size() > 1) {
            std::fprintf(stderr, "%s: takes one scenario, got %zu\n",
                         spec.name, ctx.scenarios.size());
            return 2;
        }

        // 1. Write the program.
        isa::Program prog = buildChecksumKernel();

        // 2/3. Run it, baseline vs the chosen arm. The kernel pins its
        // own seed and warmup/measure windows ([sim] sizing does not
        // apply); the arm's [core] and [mech] sections do.
        sim::Scenario arm = !ctx.scenarios.empty()
                                ? ctx.scenarios.front()
                                : *sim::findScenario("rsep");
        core::PipelineStats base =
            runOnce(prog, sim::findScenario("baseline")->config);
        core::PipelineStats with = runOnce(prog, arm.config);

        double cov = 100.0 *
                     double(with.distPredLoad.value() +
                            with.distPredOther.value()) /
                     double(with.committedInsts.value());
        std::printf("custom checksum kernel on the Table I core:\n");
        std::printf("  baseline IPC: %.3f\n", base.ipc());
        std::printf("  RSEP IPC:     %.3f (%+.2f%%)\n", with.ipc(),
                    (with.ipc() / base.ipc() - 1.0) * 100.0);
        std::printf("  equality coverage: %.2f%% of committed "
                    "instructions\n",
                    cov);
        std::printf("  mispredictions: %llu\n",
                    (unsigned long long)with.rsepMispredicts.value());
        return 0;
    };
    return bench::runHarness(argc, argv, spec);
}
