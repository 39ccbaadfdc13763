/**
 * @file
 * Zero predictor (paper Section III): a PC-indexed confidence table
 * predicting that an instruction writes 0, letting the renamer map its
 * destination to the hardwired zero register. Validation still executes
 * the instruction; like all speculation here, prediction requires a
 * saturated confidence counter.
 */

#ifndef RSEP_RSEP_ZERO_PRED_HH
#define RSEP_RSEP_ZERO_PRED_HH

#include <algorithm>
#include <vector>

#include "common/bitutils.hh"
#include "common/prob_counter.hh"

namespace rsep::equality
{

/** The zero predictor. */
class ZeroPredictor
{
  public:
    /** The zero-prediction engine's table size. */
    static constexpr unsigned defaultEntries = 4096;

    explicit ZeroPredictor(unsigned entries = defaultEntries,
                           ConfidenceKind kind = ConfidenceKind::Deterministic8)
        : table(entries, ConfidenceCounter(kind))
    {
    }

    /** The entry of a table of @p entries that @p pc reads and trains. */
    static size_t
    indexOf(Addr pc, size_t entries)
    {
        return ((pc >> 2) ^ (pc >> 14)) & (entries - 1);
    }

    /** True when the instruction at @p pc should be zero-predicted. */
    bool
    predict(Addr pc) const
    {
        return table[indexOf(pc, table.size())].saturated();
    }

    /** Commit-time training. */
    void
    update(Addr pc, bool was_zero, Rng *rng)
    {
        ConfidenceCounter &c = table[indexOf(pc, table.size())];
        if (was_zero) {
            c.onCorrect(rng);
            saturatedOnce = saturatedOnce || c.saturated();
        } else {
            c.onIncorrect();
        }
    }

    /** True once some counter saturated: predict() is false before
     *  (a counter rises only in update()). */
    bool everSaturated() const { return saturatedOnce; }

    u64
    storageBits() const
    {
        return table.size() *
               (table.empty() ? 8 : table[0].storageBits());
    }

  private:
    std::vector<ConfidenceCounter> table;
    bool saturatedOnce = false;
};

/**
 * The silence proof of a ZeroPredictor (DESIGN.md §20): the longest
 * run of zero results any entry sees over a committed stream. Updates
 * happen at commit in program order, so the stream alone fixes every
 * entry's training. Feed every committed producer that may train with
 * a zero result to zero() and every one that certainly trains with a
 * nonzero result to nonzero(): the runs then bound the counters from
 * above, and a predictor whose counters can never saturate never
 * predicts.
 */
class ZeroRunScan
{
  public:
    explicit ZeroRunScan(unsigned entries = ZeroPredictor::defaultEntries)
        : runs(entries, 0)
    {
    }

    void
    zero(Addr pc)
    {
        u64 &r = runs[ZeroPredictor::indexOf(pc, runs.size())];
        longestRun = std::max(longestRun, ++r);
    }

    void
    nonzero(Addr pc)
    {
        runs[ZeroPredictor::indexOf(pc, runs.size())] = 0;
    }

    /** The longest run of zeros any entry has seen so far. */
    u64 longest() const { return longestRun; }

    /** True when a predictor of @p kind trained on the stream so far
     *  never predicted. */
    bool
    neverPredicts(ConfidenceKind kind) const
    {
        return longestRun < ConfidenceCounter::saturationLevel(kind);
    }

  private:
    std::vector<u64> runs;
    u64 longestRun = 0;
};

} // namespace rsep::equality

#endif // RSEP_RSEP_ZERO_PRED_HH
