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
 * A seeded pseudo-random source with convenience draws.
 *
 * Wraps a 64-bit Mersenne Twister. Not thread-safe; use one Rng per
 * simulated component.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) : _gen(seed) {}

    /** Re-seed, restarting the stream. */
    void seed(std::uint64_t s) { _gen.seed(s); }

    /** Uniform real in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(_gen);
    }

    /** Uniform real in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(_gen);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(_gen);
    }

    /** Bernoulli draw with probability @p p of true. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(_gen);
    }

    /** Exponential with the given mean (not rate). */
    double
    exponential(double mean)
    {
        return std::exponential_distribution<double>(1.0 / mean)(_gen);
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

    /** Lognormal draw from precomputed (mu, sigma) parameters (see
     *  LognormalParams) -- the allocation- and libm-free hot path
     *  the service models use; consumes the identical engine
     *  outputs as lognormalMeanCv with the matching mean/cv. */
    double
    lognormal(double mu, double sigma)
    {
        return std::lognormal_distribution<double>(mu, sigma)(_gen);
    }

    /**
     * Bounded Pareto on [lo, hi] with tail index @p alpha.
     * Heavy-tailed service demand for the OLTP-like workloads.
     */
    double boundedPareto(double lo, double hi, double alpha);

    /** Access to the raw engine for std distributions. */
    std::mt19937_64 &engine() { return _gen; }

  private:
    std::mt19937_64 _gen;
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
