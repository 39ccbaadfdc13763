#include "sim/sim_config.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"

namespace rsep::sim
{

void
SimConfig::applyEnv()
{
    double scale = simScale();
    // Windows past 2^64 instructions cannot run, and casting them
    // would be undefined.
    if (static_cast<double>(std::max(warmupInsts, measureInsts)) * scale >=
        0x1p64) {
        rsep_warn("RSEP_SIM_SCALE=%g overflows the run windows; using 1",
                  scale);
        scale = 1.0;
    }
    warmupInsts = static_cast<u64>(warmupInsts * scale);
    measureInsts = static_cast<u64>(measureInsts * scale);
    checkpoints = static_cast<u32>(envU64(
        "RSEP_CHECKPOINTS", checkpoints, 1, std::numeric_limits<u32>::max()));
}

std::string
describeTable1(const SimConfig &cfg)
{
    const auto &cp = cfg.core;
    std::ostringstream os;
    os << "TABLE I: Simulator configuration overview\n"
       << "Front End\n"
       << "  L1I 8-way 32KB, 1 cycle, 128-entry ITLB\n"
       << "  32B fetch buffer, " << cp.fetchWidth
       << "-wide fetch over 1 taken branch\n"
       << "  TAGE 1+12 components ~15K entries, " << cp.frontendDepth + 2
       << " cycles min mispredict penalty; 2-way 4K-entry BTB, 32-entry RAS\n"
       << "  " << cp.renameWidth
       << "-wide rename with zero-idiom elimination\n"
       << "Execution\n"
       << "  " << cp.robSize << "-entry ROB, " << cp.iqSize
       << "-entry IQ unified, " << cp.lqSize << "/" << cp.sqSize
       << "-entry LQ/SQ (STLF lat. " << cp.stlfLat << " cycles), "
       << cp.intPregs << "/" << cp.fpPregs << " INT/FP registers\n"
       << "  2K-SSID/1K-LFST Store Sets, not rolled back on squash\n"
       << "  " << cp.issueWidth << "-issue, 4ALU(" << cp.intAluLat
       << "c) incl 1Mul(" << cp.intMulLat << "c) and 1Div(" << cp.intDivLat
       << "c*), 3FP(" << cp.fpAluLat << "c) incl 1FPMul(" << cp.fpMulLat
       << "c) and 1FPDiv(" << cp.fpDivLat << "c*), 2Ld/Str, 1Str\n"
       << "  Full bypass, " << cp.commitWidth << "-wide retire\n"
       << "Caches\n"
       << "  L1D 8-way 32KB, 4 cycles load-to-use, 64 MSHRs, 2 load ports,"
          " 1 store port, 64-entry DTLB, stride prefetcher (degree 1)\n"
       << "  Unified private L2 16-way 256KB, 12 cycles, 64 MSHRs,"
          " stream prefetcher (degree 1)\n"
       << "  Unified shared L3 24-way 6MB, 21 cycles, 64 MSHRs,"
          " stream prefetcher (degree 1)\n"
       << "  All caches have 64B lines and LRU replacement\n"
       << "Memory\n"
       << "  Dual channel DDR4-2400 (17-17-17), 2 ranks/channel,"
          " 8 banks/rank, 8K row-buffer\n"
       << "  (*) not pipelined\n";
    return os.str();
}

} // namespace rsep::sim
