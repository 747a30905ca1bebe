/**
 * @file
 * Deterministic random number generation and the distributions the
 * workload models need (exponential, lognormal, bounded Pareto).
 *
 * Every stochastic component takes an explicit seed so whole-server
 * simulations are reproducible run to run.
 */

#ifndef AW_SIM_RANDOM_HH
#define AW_SIM_RANDOM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace aw::sim {

/**
 * SplitMix64 finalizer: one bijective avalanche step over a 64-bit
 * word. Used to whiten seeds before they reach the Mersenne Twister.
 */
std::uint64_t splitmix64(std::uint64_t x);

/**
 * Derive the seed for sub-stream @p stream of a component seeded
 * with @p base (splitmix-style stream splitting). Distinct streams
 * of the same base are decorrelated, and the mapping is pure, so a
 * fleet of simulators can hand each member an independent stream
 * while the whole ensemble stays reproducible from one top seed.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t stream);

/**
 * MT19937-64 (Nishimura, ACM TOMACS 10(4), 2000), the engine
 * std::mt19937_64 names: the same seeding, twist and tempering, so it
 * yields the identical output sequence for every seed. The twist
 * selects its matrix term by mask rather than by branch. Models
 * UniformRandomBitGenerator, so the std distributions accept it.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    explicit Mt19937_64(result_type s = 5489u) { seed(s); }

    /** Re-seed, restarting the stream. */
    void seed(result_type s);

    result_type
    operator()()
    {
        if (_pos >= kStateWords)
            twist();
        result_type z = _state[_pos++];
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71d67fffeda60000ull;
        z ^= (z << 37) & 0xfff7eee000000000ull;
        z ^= z >> 43;
        return z;
    }

  private:
    static constexpr std::size_t kStateWords = 312;

    /** Regenerate all kStateWords words of state at once. */
    void twist();

    std::array<result_type, kStateWords> _state;
    std::size_t _pos = kStateWords;
};

/**
 * The double in [0, 1) that std::generate_canonical<double, 53>
 * makes of the 64-bit engine word @p u: u rounded to nearest-even,
 * times 2^-64, with a result that rounds up to 1 clamped to the
 * largest double below 1. The conversion has no sign branch: both
 * candidate roundings are computed and one is picked by mask.
 */
inline double
canonicalFromBits(std::uint64_t u)
{
    // Exact when u < 2^63.
    const double low = static_cast<double>(static_cast<std::int64_t>(u));
    // Exact RNE when u >= 2^63: halving keeps the dropped bit as a
    // sticky bit, so the 53-bit rounding sees the same tie state.
    const double high = static_cast<double>(static_cast<std::int64_t>(
                            (u >> 1) | (u & 1))) *
                        2.0;
    const std::uint64_t top = 0 - (u >> 63);
    const double d = std::bit_cast<double>(
        (std::bit_cast<std::uint64_t>(low) & ~top) |
        (std::bit_cast<std::uint64_t>(high) & top));
    // 0x1.fffffffffffffp-1 is std::nextafter(1.0, 0.0); every
    // product below 1 is already at most that.
    return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
}

/**
 * A seeded pseudo-random source with convenience draws.
 *
 * Holds its own Mt19937_64. The hot draws (uniform, bernoulli,
 * exponential, lognormal) are written out with libstdc++ 12's
 * formulas, operand for operand, so each returns the bits the
 * matching std distribution returns over std::mt19937_64 -- without
 * depending on the standard library's distribution code. The cold
 * ones (uniformInt, normal) use the std distributions over the same
 * engine. Not thread-safe; use one Rng per simulated component.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) : _gen(seed) {}

    /** Re-seed, restarting the stream. */
    void seed(std::uint64_t s) { _gen.seed(s); }

    /** Uniform real in [0, 1): std::generate_canonical's double
     *  (uniform_real_distribution(0, 1)'s c * (1 - 0) + 0 is c). */
    double uniform() { return canonicalFromBits(_gen()); }

    /** Uniform real in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return uniform() * (hi - lo) + lo;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(_gen);
    }

    /** Bernoulli draw with probability @p p of true. Always
     *  consumes one engine word, as std::bernoulli_distribution's
     *  (c - 0) < p * (1 - 0) does. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Exponential with the given mean (not rate). */
    double
    exponential(double mean)
    {
        return -std::log(1.0 - uniform()) / (1.0 / mean);
    }

    /** Normal draw. */
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(_gen);
    }

    /**
     * Lognormal parameterized by the *target* mean and coefficient of
     * variation (cv = stddev/mean) of the resulting distribution.
     */
    double lognormalMeanCv(double mean, double cv);

    /**
     * Lognormal draw from precomputed (mu, sigma) parameters (see
     * LognormalParams) -- the allocation-free hot path the service
     * models use. The standard normal comes from the Marsaglia polar
     * method and the second normal of each accepted pair is thrown
     * away, exactly as a freshly constructed
     * std::lognormal_distribution does.
     */
    double
    lognormal(double mu, double sigma)
    {
        double y = 0.0;
        double r2 = 0.0;
        do {
            const double x = 2.0 * uniform() - 1.0;
            y = 2.0 * uniform() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        const double mult = std::sqrt(-2 * std::log(r2) / r2);
        return std::exp(sigma * (y * mult) + mu);
    }

    /**
     * Bounded Pareto on [lo, hi] with tail index @p alpha.
     * Heavy-tailed service demand for the OLTP-like workloads.
     */
    double boundedPareto(double lo, double hi, double alpha);

  private:
    Mt19937_64 _gen;
};

/**
 * Precomputed (mu, sigma) parameterization of a lognormal given its
 * target mean and coefficient of variation. The conversion costs two
 * logs and a square root; models that draw millions of times from a
 * fixed (mean, cv) hoist it here once -- Rng::lognormal(mu, sigma)
 * then produces the exact sequence lognormalMeanCv(mean, cv) would.
 */
struct LognormalParams
{
    double mu = 0.0;
    double sigma = 0.0;
    /** cv <= 0 requests no variation: draw() returns mean as-is
     *  without consuming engine output (lognormalMeanCv's contract). */
    bool degenerate = true;
    double mean = 0.0;

    LognormalParams() = default;
    LognormalParams(double mean, double cv);

    double
    draw(Rng &rng) const
    {
        return degenerate ? mean : rng.lognormal(mu, sigma);
    }
};

} // namespace aw::sim

#endif // AW_SIM_RANDOM_HH
