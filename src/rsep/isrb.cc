#include "rsep/isrb.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rsep::equality
{

Isrb::Isrb(unsigned num_entries, unsigned counter_bits)
    : table(num_entries),
      counterMax(static_cast<u8>(mask(counter_bits)))
{
}

void
Isrb::freeEntry(Entry &e)
{
    slotOf[e.preg] = noSlot;
    e.preg = invalidPhysReg;
    e.referenced = 0;
    e.committed = 0;
    ++entriesFreed;
}

bool
Isrb::share(PhysReg preg)
{
    if (Entry *e = find(preg)) {
        if (e->referenced >= counterMax) {
            ++shareRefusalsOverflow;
            return false;
        }
        ++e->referenced;
        return true;
    }
    for (auto &e : table) {
        if (e.preg == invalidPhysReg) {
            if (preg >= slotOf.size())
                slotOf.resize(preg + 1, noSlot);
            slotOf[preg] = static_cast<u32>(&e - table.data());
            e.preg = preg;
            // Producer's original mapping + this sharer.
            e.referenced = 2;
            e.committed = 0;
            return true;
        }
    }
    ++shareRefusalsFull;
    return false;
}

IsrbRelease
Isrb::release(PhysReg preg)
{
    Entry *e = find(preg);
    if (!e)
        return IsrbRelease::NotShared;
    if (e->committed >= e->referenced)
        rsep_panic("ISRB release underflow on preg %u", preg);
    ++e->committed;
    if (e->committed == e->referenced) {
        freeEntry(*e);
        return IsrbRelease::Freed;
    }
    return IsrbRelease::StillLive;
}

IsrbRelease
Isrb::squashSharer(PhysReg preg)
{
    Entry *e = find(preg);
    if (!e)
        rsep_panic("ISRB squash of unshared preg %u", preg);
    if (e->referenced == 0)
        rsep_panic("ISRB squash underflow on preg %u", preg);
    --e->referenced;
    if (e->committed == e->referenced) {
        freeEntry(*e);
        return IsrbRelease::Freed;
    }
    if (e->referenced == 1 && e->committed == 0) {
        // Back to a single (producer) mapping: the entry is no longer
        // needed; the eventual release goes through the normal path.
        freeEntry(*e);
    }
    return IsrbRelease::StillLive;
}

bool
Isrb::isShared(PhysReg preg) const
{
    return preg < slotOf.size() && slotOf[preg] != noSlot;
}

unsigned
Isrb::liveMappings(PhysReg preg) const
{
    if (!isShared(preg))
        return 0;
    const Entry &e = table[slotOf[preg]];
    return static_cast<unsigned>(e.referenced - e.committed);
}

Isrb::Checkpoint
Isrb::checkpoint() const
{
    Checkpoint cp;
    for (const auto &e : table)
        if (e.preg != invalidPhysReg)
            cp.referenced.push_back({e.preg, e.referenced});
    return cp;
}

std::vector<PhysReg>
Isrb::restore(const Checkpoint &cp)
{
    std::vector<PhysReg> freed;
    for (auto &e : table) {
        if (e.preg == invalidPhysReg)
            continue;
        bool in_cp = false;
        for (const auto &[preg, referenced] : cp.referenced) {
            if (preg == e.preg) {
                e.referenced = referenced;
                in_cp = true;
                break;
            }
        }
        if (!in_cp) {
            // Entry allocated after the checkpoint: all its sharers are
            // speculative. Only the producer mapping remains.
            e.referenced = 1;
        }
        if (e.committed >= e.referenced) {
            freed.push_back(e.preg);
            freeEntry(e);
        } else if (e.referenced == 1 && e.committed == 0) {
            freeEntry(e);
        }
    }
    return freed;
}

unsigned
Isrb::entriesInUse() const
{
    unsigned n = 0;
    for (const auto &e : table)
        if (e.preg != invalidPhysReg)
            ++n;
    return n;
}

u64
Isrb::storageBits() const
{
    unsigned counter_bits = floorLog2(static_cast<u64>(counterMax) + 1);
    // Two counters plus the preg tag (9 bits covers 470 registers).
    return table.size() * (2 * counter_bits + 9);
}

} // namespace rsep::equality
