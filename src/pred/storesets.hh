/**
 * @file
 * Store Sets memory dependence predictor (Chrysos & Emer), Table I:
 * 2K-entry SSIT, 1K-entry LFST, not rolled back on squash.
 */

#ifndef RSEP_PRED_STORESETS_HH
#define RSEP_PRED_STORESETS_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rsep::pred
{

/** Store Sets: predicts which older store a load must wait for. */
class StoreSets
{
  public:
    StoreSets(unsigned ssit_entries = 2048, unsigned lfst_entries = 1024);

    /**
     * Rename-time hook for a load: @return the sequence number of the
     * inflight store the load should wait for, or 0 if unconstrained.
     */
    SeqNum loadRename(Addr pc);

    /**
     * Rename-time hook for a store: @return the older store to order
     * behind (store-store ordering within a set), and registers this
     * store as the set's last fetched store.
     */
    SeqNum storeRename(Addr pc, SeqNum seq);

    /** Commit/squash of a store: clear its LFST slot if still owner. */
    void storeRetire(Addr pc, SeqNum seq);

    /** A load at @p load_pc violated ordering against @p store_pc. */
    void reportViolation(Addr load_pc, Addr store_pc);

    StatCounter violations;

  private:
    struct SsitEntry
    {
        bool valid = false;
        u32 ssid = 0;
    };
    struct LfstEntry
    {
        bool valid = false;
        SeqNum lastStore = 0;
    };

    size_t ssitIndex(Addr pc) const { return (pc >> 2) & (ssit.size() - 1); }

    std::vector<SsitEntry> ssit;
    std::vector<LfstEntry> lfst;
};

} // namespace rsep::pred

#endif // RSEP_PRED_STORESETS_HH
