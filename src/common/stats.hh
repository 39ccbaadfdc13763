/**
 * @file
 * A small gem5-flavoured statistics package: event counters,
 * fixed-bucket histograms and the means the figures are built from.
 * Components own their counters; the stat exporter (sim/stat_export.hh)
 * names and dumps them.
 */

#ifndef RSEP_COMMON_STATS_HH
#define RSEP_COMMON_STATS_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace rsep
{

/** A named 64-bit event counter. */
class StatCounter
{
  public:
    StatCounter() = default;

    StatCounter &operator++() { ++val; return *this; }
    StatCounter &operator+=(u64 d) { val += d; return *this; }
    void reset() { val = 0; }
    u64 value() const { return val; }

  private:
    u64 val = 0;
};

/** A fixed-bucket histogram over [0, buckets). Overflows clamp to last. */
class StatHistogram
{
  public:
    explicit StatHistogram(size_t buckets = 16) : counts(buckets, 0) {}

    void
    sample(u64 v, u64 weight = 1)
    {
        size_t i = v < counts.size() ? static_cast<size_t>(v)
                                     : counts.size() - 1;
        counts[i] += weight;
        total += weight;
    }

    void
    reset()
    {
        for (auto &c : counts)
            c = 0;
        total = 0;
    }

    u64 bucket(size_t i) const { return counts.at(i); }
    size_t buckets() const { return counts.size(); }
    u64 samples() const { return total; }

  private:
    std::vector<u64> counts;
    u64 total = 0;
};

/** Harmonic mean of a vector of strictly positive values. */
double harmonicMean(const std::vector<double> &vals);

/** Geometric mean of strictly positive values; 0 for empty input. */
double geometricMean(const std::vector<double> &vals);

} // namespace rsep

#endif // RSEP_COMMON_STATS_HH
