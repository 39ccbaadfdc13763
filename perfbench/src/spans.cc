#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <map>

#include "metrics.hh"

namespace perfbench
{

namespace
{

/** Open spans of the calling thread, innermost last (parents). */
thread_local std::vector<long> openStack;

} // namespace

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

Tracer::Span
Tracer::span(const std::string &name, std::uint64_t count,
             std::uint64_t request_id)
{
    if (!on)
        return Span(nullptr, -1);
    Record r;
    r.name = name;
    r.parent = openStack.empty() ? -1 : openStack.back();
    r.requestId = request_id;
    r.count = count;
    long idx;
    {
        std::lock_guard<std::mutex> lk(mu);
        idx = static_cast<long>(records.size());
        records.push_back(r);
        // Read the clock last, so the bookkeeping above is outside the
        // span's own interval.
        records.back().startNs = nowNs();
    }
    openStack.push_back(idx);
    return Span(this, idx);
}

void
Tracer::Span::setCount(std::uint64_t n)
{
    if (index < 0)
        return;
    std::lock_guard<std::mutex> lk(tracer->mu);
    tracer->records[static_cast<std::size_t>(index)].count = n;
}

void
Tracer::Span::close()
{
    if (index < 0)
        return;
    std::int64_t end = tracer->nowNs();
    {
        std::lock_guard<std::mutex> lk(tracer->mu);
        tracer->records[static_cast<std::size_t>(index)].endNs = end;
    }
    auto it = std::find(openStack.rbegin(), openStack.rend(), index);
    if (it != openStack.rend())
        openStack.erase(std::next(it).base());
    index = -1;
}

bool
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu);
    // Self time: a span's duration minus what its direct children
    // cover (children of one parent run sequentially on its thread, or
    // are clipped to it when they ran on pool threads).
    std::vector<std::int64_t> childNs(records.size(), 0);
    for (const Record &r : records)
        if (r.parent >= 0 && r.endNs >= 0) {
            const Record &p = records[static_cast<std::size_t>(r.parent)];
            std::int64_t lo = std::max(r.startNs, p.startNs);
            std::int64_t hi = p.endNs < 0 ? r.endNs
                                          : std::min(r.endNs, p.endNs);
            if (hi > lo)
                childNs[static_cast<std::size_t>(r.parent)] += hi - lo;
        }
    struct Summary
    {
        double seconds = 0.0, selfSeconds = 0.0;
        std::uint64_t count = 0, spans = 0;
    };
    std::map<std::string, Summary> byName;

    std::ofstream os(path);
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        if (r.endNs < 0)
            continue;
        double dur = static_cast<double>(r.endNs - r.startNs) / 1e9;
        double self = std::max(
            0.0, dur - static_cast<double>(childNs[i]) / 1e9);
        Summary &s = byName[r.name];
        s.seconds += dur;
        s.selfSeconds += self;
        s.count += r.count;
        ++s.spans;
        os << (i ? ",\n" : "") << "  {\"id\": " << i << ", \"name\": \""
           << r.name << "\", \"parent\": " << r.parent
           << ", \"request\": " << r.requestId << ", \"count\": " << r.count
           << ", \"start_ns\": " << r.startNs << ", \"end_ns\": " << r.endNs
           << "}";
    }
    os << "\n], \"summary\": {\n";
    std::size_t k = 0;
    for (const auto &[name, s] : byName)
        os << (k++ ? ",\n" : "") << "  \"" << name
           << "\": {\"seconds\": " << jsonNumber(s.seconds)
           << ", \"self_seconds\": " << jsonNumber(s.selfSeconds)
           << ", \"count\": " << s.count << ", \"spans\": " << s.spans
           << "}";
    os << "\n}}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
