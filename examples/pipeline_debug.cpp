/**
 * @file
 * Deep-dive diagnostics: run one benchmark under one scenario and
 * dump every pipeline/cache/predictor counter. Useful to understand
 * where cycles go before and after enabling RSEP.
 *
 * Usage: pipeline_debug [benchmark] [scenario]
 * (default: dealII baseline; any registered scenario name or
 * --scenario/--scenario-file arm works, e.g. rsep, vp, realistic)
 */

#include <iostream>

#include "bench_util.hh"
#include "wl/suite.hh"

namespace
{

using namespace rsep;

int
dumpOne(const std::string &bench, const sim::Scenario &scenario)
{
    const sim::SimConfig &cfg = scenario.config;

    wl::Workload w = wl::makeWorkload(bench);
    wl::Emulator emu(w.program);
    emu.resetArchState();
    w.init(emu, 0);

    std::cout << "program '" << w.program.progName() << "' ("
              << w.archetype << "), " << w.program.size()
              << " static instructions\n";
    for (size_t i = 0; i < w.program.size(); ++i)
        std::cout << "  " << w.program.disasm(i) << "\n";

    core::Pipeline pipe(cfg.core, cfg.mech, emu, cfg.seed);
    pipe.run(cfg.warmupInsts);
    pipe.resetStats();
    pipe.run(cfg.measureInsts);

    const auto &st = pipe.stats();
    auto pct = [&](u64 v) {
        return 100.0 * static_cast<double>(v) /
               static_cast<double>(st.committedInsts.value());
    };

    std::cout << "\nconfig: " << cfg.label << "\n";
    std::cout << "cycles " << st.cycles.value() << "  insts "
              << st.committedInsts.value() << "  IPC " << st.ipc()
              << "\n";
    std::cout << "loads " << pct(st.committedLoads.value())
              << "%  stores " << pct(st.committedStores.value())
              << "%  branches " << pct(st.committedBranches.value())
              << "%  producers " << pct(st.committedProducers.value())
              << "%\n";
    std::cout << "rename stalls: rob " << st.renameStallRob.value()
              << " iq " << st.renameStallIq.value() << " lsq "
              << st.renameStallLsq.value() << " regs "
              << st.renameStallRegs.value() << "\n";
    std::cout << "squashes: commit " << st.commitSquashes.value()
              << " memorder " << st.memOrderSquashes.value() << "\n";
    std::cout << "coverage: zidiom " << pct(st.zeroIdiomElim.value())
              << "% move " << pct(st.moveElim.value()) << "% zp "
              << pct(st.zeroPredLoad.value() + st.zeroPredOther.value())
              << "% dist "
              << pct(st.distPredLoad.value() + st.distPredOther.value())
              << "% vp "
              << pct(st.valuePredLoad.value() + st.valuePredOther.value())
              << "%\n";
    std::cout << "rsep correct " << st.rsepCorrect.value() << " wrong "
              << st.rsepMispredicts.value() << " | vp correct "
              << st.vpCorrect.value() << " wrong "
              << st.vpMispredicts.value() << "\n";

    auto &bru = pipe.branchUnit();
    std::cout << "branches: cond " << bru.condBranches.value()
              << " mispred " << bru.condMispredicts.value() << " ("
              << (bru.condBranches.value()
                      ? 100.0 * bru.condMispredicts.value() /
                            bru.condBranches.value()
                      : 0.0)
              << "%) indirect-miss " << bru.indirectMispredicts.value()
              << " ret-miss " << bru.returnMispredicts.value()
              << " btb-bubbles " << bru.btbMissBubbles.value() << "\n";

    auto &mem = pipe.memory();
    auto cache_line = [&](mem::CacheLevel &c) {
        std::cout << "  " << c.params().name << ": hits "
                  << c.hits.value() << " misses " << c.misses.value()
                  << " merges " << c.mshrMerges.value() << " pf "
                  << c.prefetchFills.value() << "\n";
    };
    cache_line(mem.l1iCache());
    cache_line(mem.l1dCache());
    cache_line(mem.l2Cache());
    cache_line(mem.l3Cache());
    std::cout << "  dram: reads " << mem.dram().reads.value()
              << " row-hits " << mem.dram().rowHits.value() << "\n";
    std::cout << "  dtlb: hits " << mem.dtlbUnit().hits.value()
              << " misses " << mem.dtlbUnit().misses.value() << "\n";
    std::cout << "isrb in use " << pipe.isrb().entriesInUse() << "/"
              << pipe.isrb().capacity() << " refusals(full) "
              << pipe.isrb().shareRefusalsFull.value() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rsep;

    bench::HarnessSpec spec;
    spec.name = "pipeline_debug";
    spec.description =
        "Run one benchmark under one scenario and dump every "
        "pipeline/cache/predictor\ncounter.";
    spec.positionalHelp = " [benchmark] [scenario]";
    spec.runsMatrix = false;
    spec.custom = [&spec](const bench::DriverContext &ctx) {
        if (ctx.scenarios.size() > 1) {
            std::cerr << spec.name << ": takes one scenario, got "
                      << ctx.scenarios.size() << "\n";
            return 2;
        }
        std::string bench =
            !ctx.positional.empty() ? ctx.positional[0] : "dealII";

        sim::Scenario scenario;
        if (!ctx.scenarios.empty()) {
            scenario = ctx.scenarios.front();
        } else {
            std::string arm =
                ctx.positional.size() > 1 ? ctx.positional[1] : "baseline";
            auto found = sim::findScenario(arm);
            if (!found) {
                std::cerr << spec.name << ": unknown scenario '" << arm
                          << "' (see --list-scenarios)\n";
                return 2;
            }
            scenario = std::move(*found);
        }
        return dumpOne(bench, scenario);
    };
    return bench::runHarness(argc, argv, spec);
}
