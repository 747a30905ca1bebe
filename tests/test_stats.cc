/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"

namespace {

using namespace aw::sim;

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
    // Every percentile of an empty tracker is 0.0, as is its mean:
    // aggregation over a window with no completed requests must not
    // abort.
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

TEST(NearestRank, EdgesAndSmallN)
{
    // One sample: every percentile is it.
    for (const double p : {0.0, 50.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(nearestRankIndex(p, 1), 0u) << p;
    // p = 0 and tiny p take the minimum; p = 100 the maximum.
    EXPECT_EQ(nearestRankIndex(0.0, 1000), 0u);
    EXPECT_EQ(nearestRankIndex(0.01, 10), 0u);
    EXPECT_EQ(nearestRankIndex(100.0, 1000), 999u);
    // ceil(p/100 * n) is the 1-based rank.
    EXPECT_EQ(nearestRankIndex(50.0, 10), 4u);
    EXPECT_EQ(nearestRankIndex(50.0, 11), 5u);
    EXPECT_EQ(nearestRankIndex(99.0, 1000), 989u);
    // The rank follows the double arithmetic: 99.9 / 100 rounds to
    // just above 0.999, so at n = 1000 the product lands a hair
    // above 999 and ceil() takes rank 1000 (the maximum).
    EXPECT_EQ(nearestRankIndex(99.9, 1000), 999u);
    // Below n = 100 the p99 and p99.9 ranks coincide (both the
    // maximum); at n = 100 they first part.
    for (const std::size_t n : {2u, 10u, 99u}) {
        EXPECT_EQ(nearestRankIndex(99.0, n), n - 1) << n;
        EXPECT_EQ(nearestRankIndex(99.9, n), n - 1) << n;
    }
    EXPECT_EQ(nearestRankIndex(99.0, 100), 98u);
    EXPECT_EQ(nearestRankIndex(99.9, 100), 99u);
}

TEST(NearestRank, SortedHelperHandlesTiesAndEmpty)
{
    EXPECT_EQ(percentileOfSorted(std::vector<double>{}, 99.0), 0.0);
    EXPECT_EQ(percentileOfSorted(std::vector<std::uint64_t>{}, 50.0),
              0u);
    const std::vector<double> ties{1.0, 2.0, 2.0, 2.0, 2.0, 3.0};
    EXPECT_EQ(percentileOfSorted(ties, 0.0), 1.0);
    EXPECT_EQ(percentileOfSorted(ties, 20.0), 2.0);
    EXPECT_EQ(percentileOfSorted(ties, 50.0), 2.0);
    EXPECT_EQ(percentileOfSorted(ties, 66.0), 2.0);
    EXPECT_EQ(percentileOfSorted(ties, 84.0), 3.0);
    EXPECT_EQ(percentileOfSorted(ties, 100.0), 3.0);
}

TEST(Percentile, MeanDoesNotDependOnSorting)
{
    // Values spanning 2^60 make the floating-point sum depend on its
    // order, so a mean that re-summed the (now sorted) storage would
    // change after the percentile query.
    aw::sim::Rng rng(77);
    PercentileTracker t;
    double reference = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const double x = std::ldexp(rng.uniform(1.0, 2.0),
                                    static_cast<int>(i % 61) - 30);
        t.add(x);
        reference += x;
    }
    const double before = t.mean();
    EXPECT_EQ(before, reference / 1000.0);
    (void)t.p99();
    EXPECT_EQ(t.mean(), before);
    (void)t.selectPercentiles({50.0, 99.9});
    EXPECT_EQ(t.mean(), before);

    // A merge sums the other tracker in its storage order, after
    // this tracker's own samples.
    PercentileTracker u;
    u.add(1e16);
    u.add(1.0);
    u.add(-1e16);
    PercentileTracker pooled;
    pooled.add(0.5);
    pooled.merge(u);
    EXPECT_EQ(pooled.mean(), (((0.5 + 1e16) + 1.0) + -1e16) / 4.0);
    pooled.reset();
    EXPECT_EQ(pooled.mean(), 0.0);
    pooled.add(3.0);
    EXPECT_EQ(pooled.mean(), 3.0);
}

TEST(PercentileProperty, SelectionMatchesSortOnHeavyTies)
{
    aw::sim::Rng rng(2024);
    for (int round = 0; round < 200; ++round) {
        const auto n =
            static_cast<std::size_t>(rng.uniformInt(1, 3000));
        // Few distinct values (sometimes just one), so most ranks
        // land inside a run of ties.
        const auto distinct =
            static_cast<double>(rng.uniformInt(1, 12));
        PercentileTracker sorted;
        PercentileTracker selected;
        for (std::size_t i = 0; i < n; ++i) {
            const double x = rng.bernoulli(0.97)
                                 ? std::floor(rng.uniform(0, distinct))
                                 : rng.boundedPareto(1.0, 1e4, 1.1);
            sorted.add(x);
            selected.add(x);
        }
        const auto got = selected.selectPercentiles({50.0, 99.0, 99.9});
        ASSERT_EQ(got.size(), 3u);
        EXPECT_EQ(got[0], sorted.p50()) << "n=" << n;
        EXPECT_EQ(got[1], sorted.p99()) << "n=" << n;
        EXPECT_EQ(got[2], sorted.p999()) << "n=" << n;
        // Selection leaves the tracker fully usable.
        EXPECT_EQ(selected.p999(), sorted.p999()) << "n=" << n;
        EXPECT_EQ(selected.mean(), sorted.mean()) << "n=" << n;
    }
    PercentileTracker empty;
    EXPECT_EQ(empty.selectPercentiles({99.0, 99.9}),
              (std::vector<double>{0.0, 0.0}));
}

TEST(PercentileDeathTest, SelectionNeedsAscendingInRangePercentiles)
{
    PercentileTracker t;
    for (int i = 0; i < 1000; ++i)
        t.add(static_cast<double>(i));
    EXPECT_DEATH((void)t.selectPercentiles({99.9, 50.0}), "ascend");
    EXPECT_DEATH((void)t.selectPercentiles({101.0}), "range");
}

} // namespace
