/**
 * @file
 * Unit tests for the RNG wrapper and distributions.
 *
 * std::mt19937_64 and the std distributions are the oracle: the
 * simulator's engine and draws must reproduce them bit for bit, so
 * that replacing them moved no simulated result.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <type_traits>

#include "sim/random.hh"
#include "sim/types.hh"

namespace {

using namespace aw::sim;

constexpr std::uint64_t kTop = std::uint64_t(1) << 63;
constexpr std::uint64_t kAllOnes = ~std::uint64_t(0);

/** Bitwise equality, so 0.0 vs -0.0 and NaN payloads count too. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/**
 * Run @p n paired draws of @p ours (over an Rng) and @p oracle (over
 * a std::mt19937_64), both seeded with @p seed; return the index of
 * the first pair whose bits differ, or n if none does.
 */
template <typename T>
std::size_t
firstMismatch(std::uint64_t seed, std::size_t n,
              const std::function<T(Rng &)> &ours,
              const std::function<T(std::mt19937_64 &)> &oracle)
{
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t i = 0; i < n; ++i) {
        const T a = ours(rng);
        const T b = oracle(ref);
        if constexpr (std::is_floating_point_v<T>) {
            if (!sameBits(a, b))
                return i;
        } else if (a != b) {
            return i;
        }
    }
    return n;
}

constexpr std::size_t kDraws = 1000000;

TEST(Mt19937_64, MatchesStdEngine)
{
    constexpr std::size_t kOutputs = 10000000;
    for (const std::uint64_t seed :
         {std::uint64_t(0), std::uint64_t(1), std::uint64_t(42), kTop,
          kAllOnes}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 ref(seed);
        std::size_t i = 0;
        while (i < kOutputs && ours() == ref())
            ++i;
        EXPECT_EQ(i, kOutputs) << "seed " << seed;
    }
}

TEST(Mt19937_64, ReseedRestartsTheStream)
{
    Mt19937_64 ours(7);
    for (int i = 0; i < 1000; ++i)
        ours();
    ours.seed(42);
    std::mt19937_64 ref(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(ours(), ref()) << i;
}

/** A bit generator that always returns one word. */
struct FixedWord
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return kAllOnes; }
    result_type word;
    result_type operator()() { return word; }
};

TEST(CanonicalFromBits, MatchesGenerateCanonicalOnEdgeWords)
{
    constexpr std::uint64_t k53 = std::uint64_t(1) << 53;
    for (const std::uint64_t w :
         {std::uint64_t(0), std::uint64_t(1), k53 - 1, k53, k53 + 1,
          kTop - 1, kTop, kTop + 1,
          // Ties at 2^63 scale: round down to even, round up to even.
          std::uint64_t(0x8000000000000400),
          std::uint64_t(0x8000000000000c00),
          // Just below and at the first word that rounds up to 2^64.
          std::uint64_t(0xfffffffffffffbff),
          std::uint64_t(0xfffffffffffffc00), kAllOnes}) {
        FixedWord g{w};
        const double ref = std::generate_canonical<double, 53>(g);
        const double ours = canonicalFromBits(w);
        EXPECT_TRUE(sameBits(ours, ref))
            << std::hex << "word 0x" << w << ": " << ours
            << " vs " << ref;
        EXPECT_LT(ours, 1.0);
    }
    EXPECT_EQ(canonicalFromBits(kAllOnes), std::nextafter(1.0, 0.0));
}

TEST(CanonicalFromBits, MatchesGenerateCanonicalOnEngineWords)
{
    std::mt19937_64 words(3);
    for (std::size_t i = 0; i < kDraws; ++i) {
        const std::uint64_t w = words();
        FixedWord g{w};
        ASSERT_TRUE(sameBits(canonicalFromBits(w),
                             std::generate_canonical<double, 53>(g)))
            << std::hex << "word 0x" << w;
    }
}

TEST(RngOracle, UniformMatchesStd)
{
    EXPECT_EQ(firstMismatch<double>(
                  11, kDraws, [](Rng &r) { return r.uniform(); },
                  [](std::mt19937_64 &g) {
                      return std::uniform_real_distribution<double>(
                          0.0, 1.0)(g);
                  }),
              kDraws);
    EXPECT_EQ(firstMismatch<double>(
                  12, kDraws,
                  [](Rng &r) { return r.uniform(-3.5, 17.25); },
                  [](std::mt19937_64 &g) {
                      return std::uniform_real_distribution<double>(
                          -3.5, 17.25)(g);
                  }),
              kDraws);
}

TEST(RngOracle, UniformIntMatchesStd)
{
    EXPECT_EQ(firstMismatch<std::uint64_t>(
                  13, kDraws,
                  [](Rng &r) { return r.uniformInt(3, 9999); },
                  [](std::mt19937_64 &g) {
                      return std::uniform_int_distribution<
                          std::uint64_t>(3, 9999)(g);
                  }),
              kDraws);
}

TEST(RngOracle, BernoulliMatchesStd)
{
    for (const double p : {0.0, 0.3, 0.5, 0.9, 1.0}) {
        EXPECT_EQ(firstMismatch<bool>(
                      14, kDraws,
                      [p](Rng &r) { return r.bernoulli(p); },
                      [p](std::mt19937_64 &g) {
                          return std::bernoulli_distribution(p)(g);
                      }),
                  kDraws)
            << "p = " << p;
    }
}

TEST(RngOracle, ExponentialMatchesStd)
{
    for (const double mean : {2.5e-5, 1.0, 1000.0}) {
        EXPECT_EQ(firstMismatch<double>(
                      15, kDraws,
                      [mean](Rng &r) { return r.exponential(mean); },
                      [mean](std::mt19937_64 &g) {
                          return std::exponential_distribution<double>(
                              1.0 / mean)(g);
                      }),
                  kDraws)
            << "mean = " << mean;
    }
}

TEST(RngOracle, NormalMatchesStd)
{
    EXPECT_EQ(firstMismatch<double>(
                  16, kDraws,
                  [](Rng &r) { return r.normal(5.0, 2.0); },
                  [](std::mt19937_64 &g) {
                      return std::normal_distribution<double>(5.0,
                                                              2.0)(g);
                  }),
              kDraws);
}

TEST(RngOracle, LognormalMatchesStdAtMemcachedParams)
{
    // The memcached profile's fast (GET) and slow (SET) service
    // lognormals: means 6 us and 20 us, cv 0.7.
    for (const double mean_us : {6.0, 20.0}) {
        const LognormalParams lp(static_cast<double>(fromUs(mean_us)),
                                 0.7);
        ASSERT_FALSE(lp.degenerate);
        EXPECT_EQ(firstMismatch<double>(
                      17, kDraws,
                      [&lp](Rng &r) { return lp.draw(r); },
                      [&lp](std::mt19937_64 &g) {
                          // A fresh distribution per draw, as the
                          // service models once constructed one.
                          return std::lognormal_distribution<double>(
                              lp.mu, lp.sigma)(g);
                      }),
                  kDraws)
            << "mean = " << mean_us << " us";
    }
}

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
