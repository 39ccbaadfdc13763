#include "rsep/ddt.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rsep::equality
{

Ddt::Ddt(unsigned entries) : table(entries)
{
    if (!isPowerOf2(entries))
        rsep_fatal("DDT entries must be a power of two (got %u)", entries);
}

std::optional<HistoryMatch>
Ddt::accessAndUpdate(u16 hash, u32 csn, u64 seq)
{
    ++lookups;
    Entry &e = table[hash & (table.size() - 1)];
    std::optional<HistoryMatch> out;
    if (e.valid) {
        u32 dist = csnDistance(csn & csnMask, e.csn);
        // A zero distance (CSN alias) or a stale wrapped entry gives a
        // bogus pair; hardware cannot tell, so neither do we -- this is
        // exactly the "per chance match" noise the paper describes.
        if (dist != 0) {
            ++matches;
            out = HistoryMatch{dist, e.seq, false};
        }
    }
    e.valid = true;
    e.csn = csn & csnMask;
    e.seq = seq;
    return out;
}

} // namespace rsep::equality
