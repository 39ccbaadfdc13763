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

#include <vector>

#include "common/bitutils.hh"
#include "common/prob_counter.hh"

namespace rsep::equality
{

/** The zero predictor. */
class ZeroPredictor
{
  public:
    explicit ZeroPredictor(unsigned entries = 4096,
                           ConfidenceKind kind = ConfidenceKind::Deterministic8)
        : table(entries, ConfidenceCounter(kind))
    {
    }

    /** True when the instruction at @p pc should be zero-predicted. */
    bool
    predict(Addr pc) const
    {
        return table[indexOf(pc)].saturated();
    }

    /** Commit-time training. */
    void
    update(Addr pc, bool was_zero, Rng *rng)
    {
        ConfidenceCounter &c = table[indexOf(pc)];
        if (was_zero)
            c.onCorrect(rng);
        else
            c.onIncorrect();
    }

    u64
    storageBits() const
    {
        return table.size() *
               (table.empty() ? 8 : table[0].storageBits());
    }

  private:
    size_t
    indexOf(Addr pc) const
    {
        return ((pc >> 2) ^ (pc >> 14)) & (table.size() - 1);
    }

    std::vector<ConfidenceCounter> table;
};

} // namespace rsep::equality

#endif // RSEP_RSEP_ZERO_PRED_HH
