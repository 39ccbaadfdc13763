#include "mem/dram.hh"

#include <algorithm>

#include "mem/cache.hh"

namespace rsep::mem
{

Dram::Dram(const DramParams &params)
    : p(params),
      banks(p.channels * p.ranksPerChannel * p.banksPerRank),
      chanFree(p.channels, 0)
{
}

Cycle
Dram::access(Addr addr, Cycle now)
{
    ++reads;
    // Address mapping: line interleave across channels, then banks.
    Addr line = addr >> lineShift;
    unsigned chan = line % p.channels;
    unsigned bank_count = p.ranksPerChannel * p.banksPerRank;
    unsigned bank_idx = (line / p.channels) % bank_count;
    u64 row = addr / p.rowBytes;

    Bank &bank = banks[chan * bank_count + bank_idx];

    // Banks operate in parallel; the shared per-channel data bus is
    // only occupied during the 64B burst.
    Cycle start = std::max(now + ns(p.controllerNs), bank.freeAt);
    Cycle access_lat;
    if (bank.open && bank.row == row) {
        ++rowHits;
        access_lat = ns(p.tCasNs);
    } else {
        access_lat = ns(bank.open ? p.tRpNs + p.tRcdNs + p.tCasNs
                                  : p.tRcdNs + p.tCasNs);
        bank.open = true;
        bank.row = row;
    }
    Cycle burst_start = std::max(start + access_lat, chanFree[chan]);
    Cycle done = burst_start + ns(p.tBurstNs);
    bank.freeAt = done;
    chanFree[chan] = done;
    return done;
}

Cycle
Dram::minLatency() const
{
    return ns(p.controllerNs + p.tCasNs + p.tBurstNs);
}

} // namespace rsep::mem
