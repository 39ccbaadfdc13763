/**
 * @file
 * Registry behind common/fault.hh: spec parsing, per-point hit/fired
 * accounting, and the deterministic fire-or-not decision.
 */

#include "common/fault.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"

namespace rsep::fault
{

namespace detail
{
std::atomic<bool> anyArmed{false};
} // namespace detail

namespace
{

struct PointSpec {
    std::string name;
    u64 after = 0;       // hits to skip before firing
    u64 count = 1;       // injections before auto-disarm (0 = unlimited)
    double rate = -1.0;  // <0: unconditional; else per-hit probability
    u64 seed = 1;        // rate-mode hash seed
    Kind kind = Kind::Errno;
    int err = EIO;
    u64 amount = 0;      // bytes (short/truncate) or micros (delay)

    u64 hits = 0;
    u64 fired = 0;
};

// Never destroyed: rsep_fatal -> exit() runs static destructors while
// pool and connection threads may still be inside pointSlow(), and a
// destroyed mutex or vector under them is a use-after-free. Leaking
// the two objects keeps every injection point valid until the process
// is gone.
std::mutex &registryMtx = *new std::mutex;
std::vector<PointSpec> &registry = *new std::vector<PointSpec>;

/** splitmix64 finalizer: one well-mixed word from (seed, hit index). */
u64
mix(u64 seed, u64 hit)
{
    u64 z = seed + 0x9e3779b97f4a7c15ull * (hit + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

bool
parseFailMode(const std::string &mode, PointSpec &p, std::string *err)
{
    if (mode == "econnreset") {
        p.kind = Kind::Errno;
        p.err = ECONNRESET;
    } else if (mode == "epipe") {
        p.kind = Kind::Errno;
        p.err = EPIPE;
    } else if (mode == "enospc") {
        p.kind = Kind::Errno;
        p.err = ENOSPC;
    } else if (mode == "eio") {
        p.kind = Kind::Errno;
        p.err = EIO;
    } else if (mode == "eintr") {
        p.kind = Kind::Errno;
        p.err = EINTR;
    } else if (mode == "short") {
        p.kind = Kind::ShortWrite;
        p.err = ECONNRESET;
    } else if (mode == "truncate") {
        p.kind = Kind::Truncate;
    } else if (mode == "delay") {
        p.kind = Kind::Delay;
    } else {
        if (err)
            *err = "unknown fail mode '" + mode +
                   "' (econnreset|epipe|enospc|eio|eintr|short|truncate|"
                   "delay)";
        return false;
    }
    return true;
}

/** Parse one `point[:key=value]...` clause into @p out. */
bool
parseOneSpec(const std::string &clause, PointSpec &out, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = "fault spec '" + clause + "': " + why;
        return false;
    };

    size_t pos = clause.find(':');
    out.name = trimmed(clause.substr(0, pos));
    if (out.name.empty())
        return fail("empty point name");

    u64 msSet = 50;    // delay default
    u64 bytesSet = 1;  // short/truncate default
    while (pos != std::string::npos) {
        size_t next = clause.find(':', pos + 1);
        std::string kv = clause.substr(
            pos + 1, next == std::string::npos ? std::string::npos
                                               : next - pos - 1);
        pos = next;
        size_t eq = kv.find('=');
        if (eq == std::string::npos)
            return fail("expected key=value, got '" + kv + "'");
        std::string key = trimmed(kv.substr(0, eq));
        std::string val = trimmed(kv.substr(eq + 1));
        if (key == "after") {
            if (!parseU64(val, out.after))
                return fail("bad after count '" + val + "'");
        } else if (key == "count") {
            if (!parseU64(val, out.count))
                return fail("bad count '" + val + "'");
        } else if (key == "rate") {
            if (!parseDouble(val, out.rate) || out.rate <= 0.0 ||
                out.rate > 1.0)
                return fail("rate must be in (0, 1], got '" + val + "'");
        } else if (key == "seed") {
            if (!parseU64(val, out.seed))
                return fail("bad seed '" + val + "'");
        } else if (key == "fail") {
            if (!parseFailMode(val, out, err))
                return false;
        } else if (key == "ms") {
            if (!parseU64(val, msSet))
                return fail("bad ms '" + val + "'");
        } else if (key == "bytes") {
            if (!parseU64(val, bytesSet))
                return fail("bad bytes '" + val + "'");
        } else {
            return fail("unknown key '" + key + "'");
        }
    }

    if (out.kind == Kind::Delay)
        out.amount = msSet * 1000; // ms -> micros
    else if (out.kind == Kind::ShortWrite || out.kind == Kind::Truncate)
        out.amount = bytesSet;
    return true;
}

} // namespace

bool
armFromSpec(const std::string &spec, std::string *err)
{
    std::vector<PointSpec> parsed;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t end = spec.find_first_of(",;", start);
        std::string clause = trimmed(
            spec.substr(start, end == std::string::npos ? std::string::npos
                                                        : end - start));
        start = end == std::string::npos ? spec.size() + 1 : end + 1;
        if (clause.empty())
            continue;
        PointSpec p;
        if (!parseOneSpec(clause, p, err))
            return false;
        parsed.push_back(std::move(p));
    }
    if (parsed.empty()) {
        if (err)
            *err = "fault spec '" + spec + "': no point clauses";
        return false;
    }

    std::lock_guard<std::mutex> lk(registryMtx);
    for (PointSpec &p : parsed)
        registry.push_back(std::move(p));
    detail::anyArmed.store(true, std::memory_order_relaxed);
    return true;
}

void
initFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *spec = std::getenv("RSEP_FAULT");
        if (!spec || !*spec)
            return;
        std::string err;
        if (!armFromSpec(spec, &err))
            rsep_fatal("RSEP_FAULT: %s", err.c_str());
    });
}

void
disarmAll()
{
    std::lock_guard<std::mutex> lk(registryMtx);
    registry.clear();
    detail::anyArmed.store(false, std::memory_order_relaxed);
}

u64
hitCount(std::string_view name)
{
    std::lock_guard<std::mutex> lk(registryMtx);
    u64 n = 0;
    for (const PointSpec &p : registry)
        if (p.name == name)
            n += p.hits;
    return n;
}

u64
firedCount(std::string_view name)
{
    std::lock_guard<std::mutex> lk(registryMtx);
    u64 n = 0;
    for (const PointSpec &p : registry)
        if (p.name == name)
            n += p.fired;
    return n;
}

void
sleepMicros(u64 micros)
{
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

namespace detail
{

Injected
pointSlow(std::string_view name)
{
    std::lock_guard<std::mutex> lk(registryMtx);
    for (PointSpec &p : registry) {
        if (p.name != name)
            continue;
        u64 hit = p.hits++;
        if (hit < p.after)
            continue;
        if (p.count != 0 && p.fired >= p.count)
            continue;
        if (p.rate > 0.0) {
            double draw =
                static_cast<double>(mix(p.seed, hit) >> 11) * 0x1.0p-53;
            if (draw >= p.rate)
                continue;
        }
        ++p.fired;
        Injected inj;
        inj.kind = p.kind;
        inj.err = p.err;
        inj.amount = p.amount;
        return inj;
    }
    return {};
}

} // namespace detail

} // namespace rsep::fault
