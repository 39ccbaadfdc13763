#include "mem/cache.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace rsep::mem
{

CacheLevel::CacheLevel(const CacheParams &params) : p(params)
{
    if (p.assoc == 0 || p.assoc > 255)
        rsep_fatal("%s: associativity must be 1..255 (got %u)",
                   p.name.c_str(), p.assoc);
    u64 lines = p.sizeBytes / lineBytes;
    if (lines % p.assoc != 0)
        rsep_fatal("%s: size/assoc mismatch", p.name.c_str());
    sets = static_cast<unsigned>(lines / p.assoc);
    if (!isPowerOf2(sets))
        rsep_fatal("%s: set count must be a power of two (got %u)",
                   p.name.c_str(), sets);
    // Default-initialised: only ways below a set's fill count are read.
    ways.reset(new Way[lines]);
    fill.assign(sets, 0);
    outstanding.reserve(p.mshrs);
}

bool
CacheLevel::accessTags(Addr addr, bool)
{
    size_t s = setOf(addr);
    Addr tag = tagOf(addr);
    ++useClock;
    Way *set = &ways[s * p.assoc];
    unsigned n = fill[s];
    for (unsigned w = 0; w < n; ++w) {
        if (set[w].tag == tag) {
            set[w].lastUse = useClock;
            ++hits;
            return true;
        }
    }
    ++misses;
    Way *victim;
    if (n < p.assoc) {
        victim = &set[n];
        fill[s] = static_cast<u8>(n + 1);
    } else {
        // Full set: evict the least recently used way. Every valid way
        // has a distinct lastUse, so the minimum is unique.
        victim = &set[0];
        for (unsigned w = 1; w < n; ++w)
            if (set[w].lastUse < victim->lastUse)
                victim = &set[w];
    }
    victim->tag = tag;
    victim->lastUse = useClock;
    return false;
}

bool
CacheLevel::peek(Addr addr) const
{
    size_t s = setOf(addr);
    Addr tag = tagOf(addr);
    const Way *set = &ways[s * p.assoc];
    for (unsigned w = 0, n = fill[s]; w < n; ++w)
        if (set[w].tag == tag)
            return true;
    return false;
}

void
CacheLevel::reapMshrs(Cycle now)
{
    if (now < earliestReady)
        return;
    Cycle earliest = invalidCycle;
    for (size_t i = 0; i < outstanding.size();) {
        if (outstanding[i].ready <= now) {
            outstanding[i] = outstanding.back();
            outstanding.pop_back();
        } else {
            earliest = std::min(earliest, outstanding[i].ready);
            ++i;
        }
    }
    earliestReady = earliest;
}

const CacheLevel::Mshr *
CacheLevel::findMshr(Addr line) const
{
    for (const Mshr &m : outstanding)
        if (m.line == line)
            return &m;
    return nullptr;
}

std::optional<Cycle>
CacheLevel::pendingFill(Addr addr, Cycle now)
{
    reapMshrs(now);
    const Mshr *m = findMshr(addr >> lineShift);
    if (!m)
        return std::nullopt;
    ++mshrMerges;
    return m->ready;
}

Cycle
CacheLevel::trackMiss(Addr addr, Cycle now, Cycle ready)
{
    reapMshrs(now);
    Addr line = addr >> lineShift;
    if (const Mshr *m = findMshr(line)) {
        // Merge into the in-flight miss for the same line.
        ++mshrMerges;
        return m->ready;
    }
    if (outstanding.size() >= p.mshrs) {
        // All MSHRs busy: the request waits for the earliest to free.
        ++mshrStalls;
        Cycle delay = earliestReady > now ? earliestReady - now : 0;
        ready += delay;
    }
    outstanding.push_back({line, ready});
    earliestReady = std::min(earliestReady, ready);
    return ready;
}

} // namespace rsep::mem
