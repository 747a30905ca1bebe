/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"

namespace {

using namespace aw::sim;

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
    EXPECT_DOUBLE_EQ(acc.cv(), 0.4);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), 0.0);
    EXPECT_DOUBLE_EQ(acc.max(), 0.0);
}

TEST(Accumulator, SingleSample)
{
    Accumulator acc;
    acc.add(3.5);
    EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, ResetClears)
{
    Accumulator acc;
    acc.add(10.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    acc.add(2.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
}

TEST(Accumulator, NumericallyStableOnOffsetData)
{
    // Welford should keep precision with a large offset.
    Accumulator acc;
    const double offset = 1e12;
    for (const double x : {1.0, 2.0, 3.0})
        acc.add(offset + x);
    EXPECT_NEAR(acc.variance(), 2.0 / 3.0, 1e-3);
}

TEST(Percentile, NearestRankExact)
{
    PercentileTracker t;
    for (int i = 1; i <= 100; ++i)
        t.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(t.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(t.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(t.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(t.percentile(1), 1.0);
    EXPECT_DOUBLE_EQ(t.percentile(0), 1.0);
}

TEST(Percentile, UnsortedInput)
{
    PercentileTracker t;
    for (const double x : {5.0, 1.0, 4.0, 2.0, 3.0})
        t.add(x);
    EXPECT_DOUBLE_EQ(t.p50(), 3.0);
    EXPECT_DOUBLE_EQ(t.percentile(100), 5.0);
}

TEST(Percentile, AddAfterQueryInvalidatesCache)
{
    PercentileTracker t;
    t.add(1.0);
    EXPECT_DOUBLE_EQ(t.p99(), 1.0);
    t.add(100.0);
    EXPECT_DOUBLE_EQ(t.p99(), 100.0);
}

TEST(Percentile, MeanMatches)
{
    PercentileTracker t;
    for (const double x : {2.0, 4.0, 6.0})
        t.add(x);
    EXPECT_DOUBLE_EQ(t.mean(), 4.0);
    EXPECT_EQ(t.count(), 3u);
}

TEST(Percentile, EmptyTrackerIsDefinedAndZero)
{
    // Every percentile of an empty tracker is 0.0, matching the
    // empty Accumulator accessors: aggregation over a window with
    // no completed requests must not abort.
    PercentileTracker t;
    EXPECT_TRUE(t.empty());
    for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(t.percentile(p), 0.0) << p;
    EXPECT_DOUBLE_EQ(t.p50(), 0.0);
    EXPECT_DOUBLE_EQ(t.p99(), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);

    // And the tracker still works normally afterwards.
    t.add(7.0);
    EXPECT_DOUBLE_EQ(t.p99(), 7.0);
}

TEST(PercentileDeathTest, OutOfRangePanics)
{
    PercentileTracker t;
    t.add(1.0);
    EXPECT_DEATH(t.percentile(101), "range");
    EXPECT_DEATH(t.percentile(-0.5), "range");
}

/** Straight-line nearest-rank reference: sort a copy, take the
 *  1-based ceil(p/100 * n)-th order statistic. */
double
referencePercentile(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    if (p == 0.0)
        return samples.front();
    const auto n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::max<std::size_t>(rank, 1);
    return samples[rank - 1];
}

TEST(PercentileProperty, MatchesReferenceOnRandomSamples)
{
    aw::sim::Rng rng(1234);
    for (int round = 0; round < 50; ++round) {
        const auto n =
            static_cast<std::size_t>(rng.uniformInt(1, 200));
        std::vector<double> samples;
        PercentileTracker t;
        for (std::size_t i = 0; i < n; ++i) {
            // Mix of heavy-tailed and discrete values so ties and
            // duplicates are exercised too.
            const double x = rng.bernoulli(0.3)
                                 ? std::floor(rng.uniform(0, 5))
                                 : rng.boundedPareto(1.0, 1e4, 1.1);
            samples.push_back(x);
            t.add(x);
        }
        for (const double p :
             {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
            EXPECT_DOUBLE_EQ(t.percentile(p),
                             referencePercentile(samples, p))
                << "n=" << n << " p=" << p;
        }
    }
}

TEST(PercentileProperty, BoundsAreMinAndMax)
{
    aw::sim::Rng rng(99);
    PercentileTracker t;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.normal(10.0, 4.0);
        t.add(x);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    EXPECT_DOUBLE_EQ(t.percentile(0.0), lo);
    EXPECT_DOUBLE_EQ(t.percentile(100.0), hi);
}

TEST(PercentileProperty, MergedTrackersEqualPooledSamples)
{
    aw::sim::Rng rng(4321);
    for (int round = 0; round < 20; ++round) {
        PercentileTracker a;
        PercentileTracker b;
        PercentileTracker pooled;
        const auto na =
            static_cast<std::size_t>(rng.uniformInt(0, 100));
        const auto nb =
            static_cast<std::size_t>(rng.uniformInt(1, 100));
        for (std::size_t i = 0; i < na; ++i) {
            const double x = rng.exponential(3.0);
            a.add(x);
            pooled.add(x);
        }
        for (std::size_t i = 0; i < nb; ++i) {
            const double x = rng.lognormalMeanCv(5.0, 1.5);
            b.add(x);
            pooled.add(x);
        }
        // Query a first so merge() must invalidate its sort cache.
        if (!a.empty())
            (void)a.p50();
        a.merge(b);
        ASSERT_EQ(a.count(), pooled.count());
        for (const double p : {0.0, 10.0, 50.0, 95.0, 99.0, 100.0})
            EXPECT_DOUBLE_EQ(a.percentile(p), pooled.percentile(p))
                << "na=" << na << " nb=" << nb << " p=" << p;
    }
}

TEST(WeightedShares, SharesSumToOne)
{
    WeightedShares ws(3);
    ws.add(0, 10.0);
    ws.add(1, 30.0);
    ws.add(2, 60.0);
    EXPECT_DOUBLE_EQ(ws.share(0), 0.1);
    EXPECT_DOUBLE_EQ(ws.share(1), 0.3);
    EXPECT_DOUBLE_EQ(ws.share(2), 0.6);
    EXPECT_DOUBLE_EQ(ws.share(0) + ws.share(1) + ws.share(2), 1.0);
}

TEST(WeightedShares, EmptyIsZero)
{
    WeightedShares ws(2);
    EXPECT_DOUBLE_EQ(ws.share(0), 0.0);
    EXPECT_DOUBLE_EQ(ws.totalWeight(), 0.0);
}

TEST(WeightedShares, ResetClears)
{
    WeightedShares ws(2);
    ws.add(0, 5.0);
    ws.reset();
    EXPECT_DOUBLE_EQ(ws.totalWeight(), 0.0);
    EXPECT_DOUBLE_EQ(ws.weight(0), 0.0);
}

} // namespace
