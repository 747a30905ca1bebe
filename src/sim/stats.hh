/**
 * @file
 * Statistics collection: the nearest-rank percentile rule and the
 * exact percentile tracker behind the latency reporting.
 */

#ifndef AW_SIM_STATS_HH
#define AW_SIM_STATS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace aw::sim {

/**
 * Nearest-rank position of the p-th percentile (p in [0, 100]) among
 * @p n > 0 ascending samples: the 0-based index ceil(p/100 * n) - 1,
 * or 0 when that rank rounds to 0 (p = 0, or tiny p on small n). The
 * one rank rule behind every percentile this library reports.
 */
std::size_t nearestRankIndex(double p, std::size_t n);

/** The nearest-rank p-th percentile of the ascending @p sorted;
 *  T{} when it is empty. */
template <typename T>
T
percentileOfSorted(const std::vector<T> &sorted, double p)
{
    return sorted.empty() ? T{}
                          : sorted[nearestRankIndex(p, sorted.size())];
}

/** The nearest-rank p-th percentile of @p samples found by selection
 *  (std::nth_element, O(n)), leaving them partially ordered -- for
 *  callers that never read the order; T{} when empty. */
template <typename T>
T
selectPercentile(std::vector<T> &samples, double p)
{
    if (samples.empty())
        return T{};
    const auto nth = samples.begin() +
                     static_cast<std::ptrdiff_t>(
                         nearestRankIndex(p, samples.size()));
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

/**
 * Exact percentile tracking by sample retention.
 *
 * Stores every sample; percentile() sorts lazily and caches until the
 * next add(). Suitable for the request counts this library simulates
 * (millions of samples at most per run).
 */
class PercentileTracker
{
  public:
    PercentileTracker() = default;

    /** Pre-allocate for an expected sample count. */
    void reserve(std::size_t n) { _samples.reserve(n); }

    /** Release capacity beyond the samples held (a tracker that
     *  outlives its producer need not keep its reservation). */
    void shrinkToFit() { _samples.shrink_to_fit(); }

    void
    add(double x)
    {
        _samples.push_back(x);
        _sum += x;
        _sorted = false;
    }

    std::size_t count() const { return _samples.size(); }

    bool empty() const { return _samples.empty(); }

    /**
     * The p-th percentile (p in [0, 100]) using nearest-rank on the
     * sorted samples. An empty tracker reports 0.0 for every
     * percentile (as mean() does), so aggregation paths need no
     * special case for windows that completed no requests. p
     * outside [0, 100] is a panic.
     */
    double percentile(double p) const;

    /**
     * The same doubles percentile() reports for each of @p ps
     * (ascending, each in [0, 100]), found by selection instead of
     * a full sort: one std::nth_element per rank, each over the tail
     * the previous one left. For one or two tail ranks over millions
     * of samples this is O(n) instead of O(n log n). Leaves the
     * samples partially ordered: percentile() still sorts and mean()
     * is order-free, but a later merge() of this tracker into
     * another sums them in the new order.
     */
    std::vector<double>
    selectPercentiles(const std::vector<double> &ps) const;

    /** Sort the samples ascending now (percentile() does so
     *  lazily), fixing the order a later merge() sums them in. */
    void sortSamples() const;

    /** Convenience accessors. */
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }
    double p999() const { return percentile(99.9); }

    /**
     * Arithmetic mean, O(1) from a running sum. The sum accumulates
     * in insertion order: add() order, and a merge() adds the other
     * tracker's samples in that tracker's storage order. So the
     * result never depends on whether a percentile query has
     * reordered the samples since.
     */
    double
    mean() const
    {
        return _samples.empty()
                   ? 0.0
                   : _sum / static_cast<double>(_samples.size());
    }

    /** Append every sample of @p other; lets aggregators pool
     *  per-component trackers into exact global percentiles. */
    void
    merge(const PercentileTracker &other)
    {
        _samples.insert(_samples.end(), other._samples.begin(),
                        other._samples.end());
        for (const double x : other._samples)
            _sum += x;
        _sorted = false;
    }

    void
    reset()
    {
        _samples.clear();
        _sum = 0.0;
        _sorted = false;
    }

  private:
    mutable std::vector<double> _samples;
    double _sum = 0.0;
    mutable bool _sorted = false;
};

} // namespace aw::sim

#endif // AW_SIM_STATS_HH
