/**
 * @file
 * Unit tests for the RNG wrapper and distributions.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/random.hh"

namespace {

using namespace aw::sim;

TEST(Rng, DeterministicBySeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(2.0, 5.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto x = rng.uniformInt(3, 6);
        EXPECT_GE(x, 3u);
        EXPECT_LE(x, 6u);
        saw_lo |= (x == 3);
        saw_hi |= (x == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

/** Property sweep: exponential sample mean tracks the target. */
class ExponentialMean : public ::testing::TestWithParam<double>
{
};

TEST_P(ExponentialMean, SampleMeanNearTarget)
{
    const double mean = GetParam();
    Rng rng(99);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.02);
}

INSTANTIATE_TEST_SUITE_P(Means, ExponentialMean,
                         ::testing::Values(0.5, 1.0, 10.0, 1000.0));

TEST(Rng, LognormalMeanAndCv)
{
    Rng rng(5);
    const double target_mean = 100.0, target_cv = 0.8;
    const int n = 300000;
    double sum = 0.0, sumsq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.lognormalMeanCv(target_mean, target_cv);
        sum += x;
        sumsq += x * x;
    }
    const double mean = sum / n;
    const double var = sumsq / n - mean * mean;
    EXPECT_NEAR(mean, target_mean, target_mean * 0.03);
    EXPECT_NEAR(std::sqrt(var) / mean, target_cv, 0.05);
}

TEST(Rng, LognormalZeroCvIsDegenerate)
{
    Rng rng(5);
    EXPECT_DOUBLE_EQ(rng.lognormalMeanCv(42.0, 0.0), 42.0);
}

TEST(RngDeathTest, LognormalRejectsBadMean)
{
    Rng rng(5);
    EXPECT_DEATH(rng.lognormalMeanCv(-1.0, 0.5), "mean");
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.boundedPareto(1.0, 100.0, 1.5);
        EXPECT_GE(x, 1.0);
        EXPECT_LE(x, 100.0 + 1e-9);
    }
}

TEST(Rng, BoundedParetoIsHeavyTailed)
{
    // Smaller alpha -> heavier tail -> larger mean.
    Rng rng(17);
    auto mean_for = [&](double alpha) {
        double sum = 0.0;
        for (int i = 0; i < 50000; ++i)
            sum += rng.boundedPareto(1.0, 1000.0, alpha);
        return sum / 50000;
    };
    EXPECT_GT(mean_for(0.8), mean_for(2.5));
}

TEST(RngDeathTest, BoundedParetoRejectsBadBounds)
{
    Rng rng(5);
    EXPECT_DEATH(rng.boundedPareto(10.0, 5.0, 1.0), "lo");
}

} // namespace
