#include "uarch/snoop.hh"

#include "sim/logging.hh"

namespace aw::uarch {

SnoopTraffic::SnoopTraffic(double rate_per_sec, double hit_fraction,
                           std::uint64_t seed)
    : _rate(rate_per_sec), _hitFraction(hit_fraction),
      _rng(rate_per_sec > 0.0 ? std::make_unique<sim::Rng>(seed)
                              : nullptr)
{
    if (rate_per_sec < 0.0)
        sim::panic("SnoopTraffic: negative rate %f", rate_per_sec);
    if (hit_fraction < 0.0 || hit_fraction > 1.0)
        sim::panic("SnoopTraffic: hit fraction %f out of [0,1]",
                   hit_fraction);
}

sim::Tick
SnoopTraffic::nextArrival(sim::Tick now)
{
    if (!enabled())
        return sim::kMaxTick;
    const double gap_sec = _rng->exponential(1.0 / _rate);
    return now + sim::fromSec(gap_sec);
}

bool
SnoopTraffic::drawHit()
{
    return _rng && _rng->bernoulli(_hitFraction);
}

} // namespace aw::uarch
