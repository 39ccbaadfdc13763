/**
 * @file
 * Branch target buffer (2-way, 4K entries) and 32-entry return address
 * stack, per Table I.
 */

#ifndef RSEP_PRED_BTB_HH
#define RSEP_PRED_BTB_HH

#include <cstddef>
#include <vector>

#include "common/bitutils.hh"
#include "common/types.hh"

namespace rsep::pred
{

/** Set-associative BTB storing the last observed target per branch. */
class Btb
{
  public:
    explicit Btb(unsigned entries = 4096, unsigned assoc = 2);

    /** @return predicted target, or 0 when the branch misses. */
    Addr lookup(Addr pc) const;

    /** Install/refresh the target of the (taken) branch at @p pc. */
    void update(Addr pc, Addr target);

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        u8 lru = 0;
    };

    unsigned sets;
    unsigned ways;
    std::vector<Entry> arr;

    size_t setOf(Addr pc) const { return (pc >> 2) & (sets - 1); }
    Addr tagOf(Addr pc) const { return pc >> 2; }
};

/**
 * Return address stack. Trace-driven recovery note: on a squash the
 * pipeline restores the stack pointer (standard pointer-repair RAS);
 * entry corruption past the restored pointer is modelled as-is.
 */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned depth = 32);

    void push(Addr return_pc);
    /** Pop and return the predicted return target. */
    Addr pop();
    /** Top without popping. */
    Addr top() const;

    /** Snapshot = {pointer, top value} for squash repair. */
    struct Snapshot
    {
        unsigned ptr;
        Addr topVal;
    };
    Snapshot snapshot() const;
    void restore(const Snapshot &s);

  private:
    std::vector<Addr> stack;
    unsigned ptr = 0; ///< number of valid entries (mod capacity wrap).
};

} // namespace rsep::pred

#endif // RSEP_PRED_BTB_HH
