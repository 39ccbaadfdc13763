#include "wl/trace_cache.hh"

#include <chrono>

#include "common/envelope.hh"
#include "common/fnv.hh"
#include "common/mmap_file.hh"

namespace rsep::wl
{

namespace
{

u64
elapsedMicros(std::chrono::steady_clock::time_point t0)
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

DecodedTraceCache::Result
DecodedTraceCache::get(const std::string &path)
{
    Result out;

    // Map the file up front: a hit touches only the trailer page, a
    // miss decodes straight from this same view.
    MmapFile file;
    std::string io_err;
    if (!file.open(path, &io_err)) {
        out.error = std::move(io_err);
        return out;
    }
    // The trailer's checksum keys the entry without parsing the file.
    u64 checksum = 0;
    const bool keyed = envelope::peekChecksum(file.view(), checksum);
    // Unkeyable images (truncated/corrupt) are decoded uncached so the
    // decoder's diagnostic comes back verbatim.
    if (!keyed) {
        DecodedTraceParse parse = decodeTraceImage(file.view(), path);
        out.error = parse.error;
        return out;
    }
    const std::string key = path + '\0' + hex64(checksum);

    std::unique_lock<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it != entries.end()) {
        // Hold the entry by shared_ptr: once we wait, the map may
        // mutate under other threads (failed decode erases, clear()),
        // and the entry must outlive its map slot.
        std::shared_ptr<Entry> e = it->second;
        // In-flight: another thread is decoding these exact bytes.
        // Wait for its result rather than decoding again.
        cv.wait(lock, [&] { return e->ready; });
        if (e->trace) {
            auto again = entries.find(key);
            if (again != entries.end() && again->second == e)
                touch(key, *e);
            ++counters.hits;
            out.trace = e->trace;
            out.hit = true;
            return out;
        }
        // The decode failed; same bytes (the checksum is in the key)
        // give the same diagnostic, so report it without re-decoding.
        out.error = e->error;
        return out;
    }

    // Miss: publish an in-flight marker and decode outside the lock.
    // In-flight entries are in the map (so lookups can wait on them)
    // but not in the LRU list (so eviction cannot touch them).
    auto e = std::make_shared<Entry>();
    entries[key] = e;
    lock.unlock();

    auto t0 = std::chrono::steady_clock::now();
    DecodedTraceParse parse = decodeTraceImage(file.view(), path);
    const u64 micros = elapsedMicros(t0);

    lock.lock();
    ++counters.misses;
    counters.decodeMicros += micros;
    // The map slot may no longer be ours (clear() ran while we
    // decoded): publish to waiters via the shared entry regardless,
    // and only touch map/LRU state when the slot still points at us.
    auto again = entries.find(key);
    const bool slotOurs = again != entries.end() && again->second == e;
    if (!parse.ok()) {
        e->error = parse.error;
        e->ready = true;
        if (slotOurs)
            entries.erase(again); // no failure tombstones in the map.
        cv.notify_all();
        out.error = parse.error;
        return out;
    }
    e->trace = parse.trace;
    e->bytes = parse.trace->payload.size();
    e->ready = true;
    if (slotOurs) {
        lru.push_front(key);
        e->lruIt = lru.begin();
        resident += e->bytes;
        counters.residentBytes = resident;
        enforceCapacity();
    }
    cv.notify_all();
    out.trace = parse.trace;
    return out;
}

void
DecodedTraceCache::touch(const std::string &key, Entry &e)
{
    lru.erase(e.lruIt);
    lru.push_front(key);
    e.lruIt = lru.begin();
}

void
DecodedTraceCache::enforceCapacity()
{
    if (capacity == 0)
        return;
    // Evict from the cold end, but never the entry just touched or
    // inserted (front) — evicting the working element would turn an
    // over-capacity trace into a decode per lookup AND a miss counter
    // that lies about sharing.
    while (resident > capacity && lru.size() > 1) {
        const std::string &victim = lru.back();
        auto it = entries.find(victim);
        resident -= it->second->bytes;
        entries.erase(it);
        lru.pop_back();
        ++counters.evictions;
    }
    counters.residentBytes = resident;
}

void
DecodedTraceCache::setCapacityBytes(u64 bytes)
{
    std::lock_guard<std::mutex> lock(mu);
    capacity = bytes;
}

DecodedTraceCache::Stats
DecodedTraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    Stats s = counters;
    s.residentBytes = resident;
    return s;
}

void
DecodedTraceCache::resetStats()
{
    std::lock_guard<std::mutex> lock(mu);
    counters = Stats{};
    counters.residentBytes = resident;
}

void
DecodedTraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    entries.clear();
    lru.clear();
    resident = 0;
    counters.residentBytes = 0;
}

DecodedTraceCache &
traceCache()
{
    static DecodedTraceCache cache;
    return cache;
}

} // namespace rsep::wl
