#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        throw std::invalid_argument("quartiles need at least two samples");
    std::sort(v.begin(), v.end());
    // statistics.quantiles, method='exclusive', n=4.
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    std::array<double, 3> out{};
    for (long i = 1; i < 4; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        long delta = i * m - j * 4;
        out[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                      v[j] * static_cast<double>(delta)) /
                     4.0;
    }
    return out;
}

unsigned
tailPercentile(std::size_t n, std::size_t beyond)
{
    for (unsigned p = 99; p >= 50; --p) {
        std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
        if (n >= rank && n - rank >= beyond)
            return p;
    }
    return 0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double exact = p / 100.0 * static_cast<double>(v.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Ok: return "ok";
      case Outcome::ErrorFrame: return "error_frame";
      case Outcome::BusyFrame: return "busy_frame";
      case Outcome::Transport: return "transport";
      case Outcome::BadOutput: return "bad_output";
    }
    return "?";
}

void
FailureTally::add(Outcome o)
{
    ++attempted;
    ++byOutcome[static_cast<std::size_t>(o)];
}

void
FailureTally::merge(const FailureTally &other)
{
    attempted += other.attempted;
    for (std::size_t i = 0; i < outcomeKinds; ++i)
        byOutcome[i] += other.byOutcome[i];
}

std::uint64_t
FailureTally::failed() const
{
    return attempted - byOutcome[static_cast<std::size_t>(Outcome::Ok)];
}

double
FailureTally::failedFrac() const
{
    return attempted ? static_cast<double>(failed()) /
                           static_cast<double>(attempted)
                     : 0.0;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
