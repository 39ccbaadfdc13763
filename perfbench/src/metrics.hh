/**
 * @file
 * The benchmark's own statistics: order statistics over latency
 * samples, the tail-percentile rule, failure accounting and the
 * one-line JSON result the benchmark prints last.
 *
 * Kept free of simulator headers so the tests can pin the arithmetic
 * on its own.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Median (mean of the middle pair for an even count); 0 when empty. */
double median(std::vector<double> v);

/**
 * Quartiles exactly as Python's `statistics.quantiles(v, n=4)` (the
 * default "exclusive" method), so spreads the benchmark reports agree
 * with the ones computed over its output. Needs at least two samples.
 */
std::array<double, 3> quartiles(std::vector<double> v);

/**
 * The highest whole percentile of @p n samples that still leaves at
 * least @p beyond samples strictly above its nearest-rank position:
 * the largest p with n - ceil(p * n / 100) >= beyond. Capped at 99.
 * Returns 0 when even the median leaves fewer than @p beyond behind.
 */
unsigned tailPercentile(std::size_t n, std::size_t beyond = 10);

/** Nearest-rank percentile @p p (0 < p <= 100) of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);

/** How one attempted operation ended. */
enum class Outcome : unsigned {
    Ok = 0,
    ErrorFrame,   ///< the daemon answered an Error frame.
    BusyFrame,    ///< the daemon answered a structured Busy rejection.
    Transport,    ///< connect, send or receive failed.
    BadOutput,    ///< a cell or dump failed the benchmark's output check.
};
constexpr std::size_t outcomeKinds = 5;

const char *outcomeName(Outcome o);

/** Attempted/failed accounting; every non-Ok outcome is a failure. */
struct FailureTally
{
    std::uint64_t attempted = 0;
    std::array<std::uint64_t, outcomeKinds> byOutcome{};

    void add(Outcome o);
    void merge(const FailureTally &other);
    std::uint64_t failed() const;
    /** failed / attempted; 0 when nothing was attempted. */
    double failedFrac() const;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Render a number with all its significant digits (JSON-safe: a
 *  non-finite value renders as 0). */
std::string jsonNumber(double v);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
