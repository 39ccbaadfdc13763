#include "common/stats.hh"

#include <cmath>

namespace rsep
{

double
harmonicMean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0.0;
    double denom = 0.0;
    for (double v : vals) {
        if (v <= 0.0)
            return 0.0;
        denom += 1.0 / v;
    }
    return static_cast<double>(vals.size()) / denom;
}

double
geometricMean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : vals) {
        if (v <= 0.0)
            return 0.0;
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(vals.size()));
}

} // namespace rsep
