#include "wl/trace_cache.hh"

#include <chrono>

#include "common/envelope.hh"
#include "common/fnv.hh"

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

    // The trailer's checksum keys the entry: a hit reads nothing else.
    std::string bytes;
    if (!envelope::readTrailer(path, bytes, &out.error))
        return out;
    u64 checksum = 0;
    // Unkeyable images (truncated/corrupt) are decoded uncached so the
    // decoder's diagnostic comes back verbatim.
    if (!envelope::peekChecksum(bytes, checksum)) {
        if (envelope::readFile(path, bytes, &out.error)) {
            DecodedTraceParse parse = decodeTraceImage(std::move(bytes), path);
            out.trace = parse.trace;
            out.error = parse.error;
        }
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

    // Miss: publish an in-flight marker, then read and decode the whole
    // file outside the lock. In-flight entries are in the map (so
    // lookups can wait on them) but not in the LRU list (so eviction
    // cannot touch them).
    auto e = std::make_shared<Entry>();
    entries[key] = e;
    lock.unlock();

    auto t0 = std::chrono::steady_clock::now();
    DecodedTraceParse parse;
    if (envelope::readFile(path, bytes, &parse.error))
        parse = decodeTraceImage(std::move(bytes), path);
    const u64 micros = elapsedMicros(t0);

    lock.lock();
    ++counters.misses;
    counters.decodeMicros += micros;
    e->trace = parse.trace;
    e->error = parse.error;
    e->ready = true;
    cv.notify_all();
    // The marker leaves the map, so a failure leaves no tombstone. A
    // decoded trace goes back in under the checksum of the bytes it was
    // decoded from, which differs from the trailer's when the file was
    // replaced between the two reads. When the slot is no longer ours
    // (clear() ran while we decoded), waiters still get the result
    // through the shared entry, and the map gets nothing.
    auto slot = entries.find(key);
    const bool slot_ours = slot != entries.end() && slot->second == e;
    if (slot_ours)
        entries.erase(slot);
    out.trace = parse.trace;
    out.error = parse.error;
    if (!slot_ours || !parse.ok())
        return out;
    envelope::peekChecksum(parse.trace->image, checksum);
    const std::string decoded_key = path + '\0' + hex64(checksum);
    if (entries.emplace(decoded_key, e).second) {
        e->bytes = parse.trace->payload.size();
        lru.push_front(decoded_key);
        e->lruIt = lru.begin();
        resident += e->bytes;
        counters.residentBytes = resident;
        enforceCapacity();
    }
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
