#include "pred/storesets.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rsep::pred
{

StoreSets::StoreSets(unsigned ssit_entries, unsigned lfst_entries)
    : ssit(ssit_entries), lfst(lfst_entries)
{
    if (!isPowerOf2(ssit_entries) || !isPowerOf2(lfst_entries))
        rsep_fatal("StoreSets tables must be powers of two");
}

SeqNum
StoreSets::loadRename(Addr pc)
{
    const SsitEntry &se = ssit[ssitIndex(pc)];
    if (!se.valid)
        return 0;
    const LfstEntry &le = lfst[se.ssid & (lfst.size() - 1)];
    return le.valid ? le.lastStore : 0;
}

SeqNum
StoreSets::storeRename(Addr pc, SeqNum seq)
{
    const SsitEntry &se = ssit[ssitIndex(pc)];
    if (!se.valid)
        return 0;
    LfstEntry &le = lfst[se.ssid & (lfst.size() - 1)];
    SeqNum dep = le.valid ? le.lastStore : 0;
    le.valid = true;
    le.lastStore = seq;
    return dep;
}

void
StoreSets::storeRetire(Addr pc, SeqNum seq)
{
    const SsitEntry &se = ssit[ssitIndex(pc)];
    if (!se.valid)
        return;
    LfstEntry &le = lfst[se.ssid & (lfst.size() - 1)];
    if (le.valid && le.lastStore == seq)
        le.valid = false;
}

void
StoreSets::reportViolation(Addr load_pc, Addr store_pc)
{
    ++violations;
    SsitEntry &ls = ssit[ssitIndex(load_pc)];
    SsitEntry &ss = ssit[ssitIndex(store_pc)];
    // Chrysos & Emer merge rules.
    if (!ls.valid && !ss.valid) {
        u32 ssid = static_cast<u32>(ssitIndex(load_pc)) &
                   static_cast<u32>(lfst.size() - 1);
        ls = {true, ssid};
        ss = {true, ssid};
    } else if (ls.valid && !ss.valid) {
        ss = ls;
    } else if (!ls.valid && ss.valid) {
        ls = ss;
    } else {
        u32 ssid = std::min(ls.ssid, ss.ssid);
        ls.ssid = ssid;
        ss.ssid = ssid;
    }
}

} // namespace rsep::pred
