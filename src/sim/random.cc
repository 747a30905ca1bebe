#include "sim/random.hh"

#include <cmath>

#include "sim/logging.hh"

namespace aw::sim {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t stream)
{
    // Advance the SplitMix64 counter by the stream index, then
    // finalize: equivalent to taking the (stream+1)-th output of a
    // SplitMix64 generator seeded with splitmix64 state `base`.
    return splitmix64(base + stream * 0x9E3779B97F4A7C15ull);
}

void
Mt19937_64::seed(result_type s)
{
    _state[0] = s;
    for (std::size_t i = 1; i < kStateWords; ++i) {
        const result_type x = _state[i - 1];
        _state[i] = (x ^ (x >> 62)) * 6364136223846793005ull + i;
    }
    _pos = kStateWords;
}

void
Mt19937_64::twist()
{
    constexpr std::size_t kShift = 156; // the recurrence's middle word
    constexpr result_type kMatrix = 0xb5026f5aa96619e9ull;
    constexpr result_type kUpper = ~result_type(0) << 31;
    constexpr result_type kLower = ~kUpper;
    // The matrix term is kMatrix when y's low bit is set, else 0.
    auto next = [&](result_type cur, result_type succ, result_type far) {
        const result_type y = (cur & kUpper) | (succ & kLower);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
    };
    std::size_t k = 0;
    for (; k < kStateWords - kShift; ++k)
        _state[k] = next(_state[k], _state[k + 1], _state[k + kShift]);
    for (; k < kStateWords - 1; ++k)
        _state[k] = next(_state[k], _state[k + 1],
                         _state[k + kShift - kStateWords]);
    _state[k] = next(_state[k], _state[0], _state[kShift - 1]);
    _pos = 0;
}

LognormalParams::LognormalParams(double mean, double cv)
    : mean(mean)
{
    if (mean <= 0.0)
        panic("LognormalParams: mean must be positive (got %f)",
              mean);
    if (cv <= 0.0) {
        // Degenerate: no variation requested.
        degenerate = true;
        return;
    }
    // For lognormal(mu, sigma): mean = exp(mu + sigma^2/2) and
    // cv^2 = exp(sigma^2) - 1, so sigma^2 = ln(1 + cv^2).
    const double sigma2 = std::log(1.0 + cv * cv);
    mu = std::log(mean) - 0.5 * sigma2;
    sigma = std::sqrt(sigma2);
    degenerate = false;
}

double
Rng::lognormalMeanCv(double mean, double cv)
{
    return LognormalParams(mean, cv).draw(*this);
}

double
Rng::boundedPareto(double lo, double hi, double alpha)
{
    if (lo <= 0.0 || hi <= lo)
        panic("boundedPareto: need 0 < lo < hi (lo=%f hi=%f)", lo, hi);
    if (alpha <= 0.0)
        panic("boundedPareto: alpha must be positive (got %f)", alpha);
    const double u = uniform();
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    // Inverse CDF of the bounded Pareto distribution.
    const double x = -(u * ha - u * la - ha) / (ha * la);
    return std::pow(x, -1.0 / alpha);
}

} // namespace aw::sim
