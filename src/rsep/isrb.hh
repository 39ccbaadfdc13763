/**
 * @file
 * Inflight Shared Registers Buffer (paper Section IV-E2, after [11]).
 *
 * A small fully-associative buffer allocated on demand when a register
 * becomes shared. Each entry carries two 6-bit counters:
 * `referenced` counts name mappings to the register (the producer's
 * original mapping plus one per sharer, speculative included);
 * `committed` counts mappings whose release has committed. When every
 * counted mapping has been released (committed == referenced) the
 * physical register is truly dead and is freed together with the entry.
 *
 * The paper states the free rule as "committed strictly greater than
 * referenced" because it counts slightly different events; the algebra
 * here is the live-mapping formulation (live = referenced - committed,
 * free at live == 0), which is equivalent and easier to verify.
 *
 * Recovery: only `referenced` is speculative, so a checkpoint is just
 * the vector of referenced counters (checkpoint()/restore()); the
 * pipeline may alternatively undo sharers one by one while walking the
 * ROB backwards (squashSharer()), which is what our core does.
 *
 * Lookups (one per committed register release) go through a per-preg
 * slot index in O(1); allocation takes the lowest free slot.
 */

#ifndef RSEP_RSEP_ISRB_HH
#define RSEP_RSEP_ISRB_HH

#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace rsep::equality
{

/** Result of releasing one mapping of a physical register. */
enum class IsrbRelease : u8 {
    NotShared, ///< no entry: caller frees the register normally.
    StillLive, ///< other mappings remain: do NOT free the register.
    Freed,     ///< last mapping released: entry gone, free the register.
};

/** The ISRB. */
class Isrb
{
  public:
    explicit Isrb(unsigned num_entries = 24, unsigned counter_bits = 6);

    /**
     * Register one more sharer of @p preg.
     * @return false when no sharing is possible (buffer full or the
     * reference counter would overflow) -- the caller must then fall
     * back to a normal allocation (no prediction).
     */
    bool share(PhysReg preg);

    /** Release one mapping of @p preg (at commit of its overwriter). */
    IsrbRelease release(PhysReg preg);

    /** Squash one speculative sharer of @p preg (ROB-walk recovery). */
    IsrbRelease squashSharer(PhysReg preg);

    /** True if an entry exists for @p preg. */
    bool isShared(PhysReg preg) const;

    /** Live mappings of @p preg according to the ISRB (0 = no entry). */
    unsigned liveMappings(PhysReg preg) const;

    /** Checkpoint of the speculative state (referenced counters). */
    struct Checkpoint
    {
        std::vector<std::pair<PhysReg, u8>> referenced;
    };
    Checkpoint checkpoint() const;

    /**
     * Restore a checkpoint: referenced counters revert; entries whose
     * mappings have all committed free their register.
     * @return the registers freed by the restore.
     */
    std::vector<PhysReg> restore(const Checkpoint &cp);

    unsigned entriesInUse() const;
    unsigned capacity() const { return static_cast<unsigned>(table.size()); }

    /** Storage: 2 counters + preg tag per entry (Section VI-A3). */
    u64 storageBits() const;

    StatCounter shareRefusalsFull;
    StatCounter shareRefusalsOverflow;
    StatCounter entriesFreed;

  private:
    struct Entry
    {
        PhysReg preg = invalidPhysReg; ///< invalidPhysReg: slot free.
        u8 referenced = 0;
        u8 committed = 0;
    };

    Entry *
    find(PhysReg preg)
    {
        return isShared(preg) ? &table[slotOf[preg]] : nullptr;
    }
    void freeEntry(Entry &e);

    static constexpr u32 noSlot = ~u32{0};

    std::vector<Entry> table;
    std::vector<u32> slotOf; ///< preg -> table slot; noSlot if unshared.
    u8 counterMax;
};

} // namespace rsep::equality

#endif // RSEP_RSEP_ISRB_HH
