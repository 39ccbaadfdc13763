/**
 * @file
 * Data Dependency Table alternative for pair discovery (paper Section
 * IV-B1, after NoSQ [10]): a direct-mapped table indexed by the result
 * hash; each entry holds the CSN of the last committed instruction
 * whose result hashed there. Committing instructions read the entry to
 * get a distance and then write their own CSN.
 *
 * The paper rejects this structure (it would need one port per commit
 * slot since it is value-indexed, so banking cannot help) and shows the
 * FIFO also performs slightly better; the implementation exists for the
 * Section VI-A2 comparison.
 */

#ifndef RSEP_RSEP_DDT_HH
#define RSEP_RSEP_DDT_HH

#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "rsep/fifo_history.hh"

namespace rsep::equality
{

/** The DDT pair finder. */
class Ddt
{
  public:
    explicit Ddt(unsigned entries = 8192);

    /**
     * Commit-time access: read the distance to the previous same-hash
     * instruction (if any) and record this instruction.
     */
    std::optional<HistoryMatch> accessAndUpdate(u16 hash, u32 csn, u64 seq);

    StatCounter lookups;
    StatCounter matches;

  private:
    struct Entry
    {
        bool valid = false;
        u32 csn = 0;
        u64 seq = 0;
    };

    std::vector<Entry> table;
};

} // namespace rsep::equality

#endif // RSEP_RSEP_DDT_HH
