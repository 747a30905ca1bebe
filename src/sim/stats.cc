#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace aw::sim {

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

double
Accumulator::cv() const
{
    const double m = mean();
    return m != 0.0 ? stddev() / m : 0.0;
}

double
PercentileTracker::percentile(double p) const
{
    if (p < 0.0 || p > 100.0)
        panic("percentile out of range: %f", p);
    if (_samples.empty())
        return 0.0;
    if (!_sorted) {
        std::sort(_samples.begin(), _samples.end());
        _sorted = true;
    }
    if (p == 0.0)
        return _samples.front();
    // Nearest-rank: ceil(p/100 * N), 1-based.
    const auto n = static_cast<double>(_samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0)
        rank = 1;
    return _samples[rank - 1];
}

double
PercentileTracker::mean() const
{
    if (_samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : _samples)
        sum += s;
    return sum / static_cast<double>(_samples.size());
}

void
WeightedShares::reset()
{
    std::fill(_weights.begin(), _weights.end(), 0.0);
    _total = 0.0;
}

} // namespace aw::sim
