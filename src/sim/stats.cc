#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace aw::sim {

std::size_t
nearestRankIndex(double p, std::size_t n)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return rank == 0 ? 0 : rank - 1;
}

namespace {

void
checkPercentile(double p)
{
    if (p < 0.0 || p > 100.0)
        panic("percentile out of range: %f", p);
}

} // namespace

double
PercentileTracker::percentile(double p) const
{
    checkPercentile(p);
    if (!_sorted) {
        std::sort(_samples.begin(), _samples.end());
        _sorted = true;
    }
    return percentileOfSorted(_samples, p);
}

std::vector<double>
PercentileTracker::selectPercentiles(
    const std::vector<double> &ps) const
{
    std::vector<double> out;
    out.reserve(ps.size());
    // Everything before `from` is <= every sample at or after it, so
    // each later (higher) rank lies in [from, end).
    auto from = _samples.begin();
    for (const double p : ps) {
        checkPercentile(p);
        if (_samples.empty()) {
            out.push_back(0.0);
            continue;
        }
        const auto nth = _samples.begin() +
                         static_cast<std::ptrdiff_t>(nearestRankIndex(
                             p, _samples.size()));
        if (nth < from)
            panic("selectPercentiles: percentiles must ascend");
        if (!_sorted)
            std::nth_element(from, nth, _samples.end());
        out.push_back(*nth);
        from = nth;
    }
    return out;
}

} // namespace aw::sim
