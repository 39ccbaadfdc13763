/**
 * @file
 * Dual-channel DDR4-2400 (17-17-17) bank/row model, Table I: 2 ranks per
 * channel, 8 banks per rank, 8K row buffers. Latencies are converted to
 * core cycles at the configured core frequency.
 */

#ifndef RSEP_MEM_DRAM_HH
#define RSEP_MEM_DRAM_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rsep::mem
{

/** DDR4 timing/geometry parameters. */
struct DramParams
{
    double coreGhz = 3.4;       ///< core clock for ns -> cycle conversion.
    unsigned channels = 2;
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 8;
    u64 rowBytes = 8192;
    // DDR4-2400 CL17: tCK = 0.833ns, CAS = RCD = RP = 17 tCK ~= 14.17ns.
    double tCasNs = 14.17;
    double tRcdNs = 14.17;
    double tRpNs = 14.17;
    double tBurstNs = 3.33;     ///< 64B burst on a 64-bit channel.
    double controllerNs = 10.0; ///< queueing/controller overhead floor.
};

/** The memory model: returns completion cycles for line fetches. */
class Dram
{
  public:
    explicit Dram(const DramParams &params = DramParams{});

    /** Schedule a 64B read/write of @p addr issued at @p now. */
    Cycle access(Addr addr, Cycle now);

    /** Minimum idle-system read latency in core cycles (for reporting). */
    Cycle minLatency() const;

    const DramParams &params() const { return p; }

    StatCounter reads;
    StatCounter rowHits;

  private:
    struct Bank
    {
        bool open = false;
        u64 row = 0;
        Cycle freeAt = 0;
    };

    Cycle ns(double v) const
    {
        return static_cast<Cycle>(v * p.coreGhz + 0.5);
    }

    DramParams p;
    std::vector<Bank> banks;      ///< [channel][rank][bank] flattened.
    std::vector<Cycle> chanFree;  ///< data-bus free time per channel.
};

} // namespace rsep::mem

#endif // RSEP_MEM_DRAM_HH
