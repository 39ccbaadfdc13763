#include "pred/btb.hh"

#include "common/logging.hh"

namespace rsep::pred
{

Btb::Btb(unsigned entries, unsigned assoc)
    : sets(entries / assoc), ways(assoc), arr(entries)
{
    if (!isPowerOf2(sets))
        rsep_fatal("BTB sets must be a power of two (got %u)", sets);
}

Addr
Btb::lookup(Addr pc) const
{
    size_t s = setOf(pc);
    for (unsigned w = 0; w < ways; ++w) {
        const Entry &e = arr[s * ways + w];
        if (e.valid && e.tag == tagOf(pc))
            return e.target;
    }
    return 0;
}

void
Btb::update(Addr pc, Addr target)
{
    size_t s = setOf(pc);
    Entry *victim = nullptr;
    for (unsigned w = 0; w < ways; ++w) {
        Entry &e = arr[s * ways + w];
        if (e.valid && e.tag == tagOf(pc)) {
            e.target = target;
            e.lru = 1;
            for (unsigned w2 = 0; w2 < ways; ++w2)
                if (w2 != w)
                    arr[s * ways + w2].lru = 0;
            return;
        }
        if (!victim || (!e.valid && victim->valid) ||
            (e.valid == victim->valid && e.lru < victim->lru))
            victim = &e;
    }
    victim->valid = true;
    victim->tag = tagOf(pc);
    victim->target = target;
    victim->lru = 1;
}

ReturnAddressStack::ReturnAddressStack(unsigned depth) : stack(depth, 0)
{
}

void
ReturnAddressStack::push(Addr return_pc)
{
    stack[ptr % stack.size()] = return_pc;
    ++ptr;
}

Addr
ReturnAddressStack::pop()
{
    if (ptr == 0)
        return 0;
    --ptr;
    return stack[ptr % stack.size()];
}

Addr
ReturnAddressStack::top() const
{
    if (ptr == 0)
        return 0;
    return stack[(ptr - 1) % stack.size()];
}

ReturnAddressStack::Snapshot
ReturnAddressStack::snapshot() const
{
    return {ptr, top()};
}

void
ReturnAddressStack::restore(const Snapshot &s)
{
    ptr = s.ptr;
    if (ptr > 0)
        stack[(ptr - 1) % stack.size()] = s.topVal;
}

} // namespace rsep::pred
