/**
 * @file
 * Cache coherence snoop traffic model.
 *
 * A core in any non-flushed idle state must keep serving coherence
 * probes from the rest of the socket. The generator produces a
 * Poisson stream of probes with a configurable hit fraction; the
 * per-probe service cost (latency/power) is charged by the cache and
 * C-state models.
 */

#ifndef AW_UARCH_SNOOP_HH
#define AW_UARCH_SNOOP_HH

#include <cstddef>
#include <memory>

#include "sim/random.hh"
#include "sim/types.hh"

namespace aw::uarch {

/**
 * Poisson snoop source for one core.
 */
class SnoopTraffic
{
  public:
    /**
     * @param rate_per_sec  mean probes per second (0 = no snoops)
     * @param hit_fraction  fraction of probes that hit the private
     *                      caches (require a data access)
     * @param seed          RNG seed
     */
    SnoopTraffic(double rate_per_sec, double hit_fraction,
                 std::uint64_t seed = 12345);

    double ratePerSec() const { return _rate; }
    double hitFraction() const { return _hitFraction; }

    bool enabled() const { return _rate > 0.0; }

    /** Time from @p now to the next probe (kMaxTick if disabled). */
    sim::Tick nextArrival(sim::Tick now);

    /** Draw the hit/miss outcome of a probe (always a miss when
     *  disabled: there are no probes). */
    bool drawHit();

    /** Bytes of RNG engine state held: none when disabled. */
    std::size_t engineBytes() const { return _rng ? sizeof(sim::Rng) : 0; }

  private:
    double _rate;
    double _hitFraction;
    /** Only an enabled source draws, so only it carries an engine. */
    std::unique_ptr<sim::Rng> _rng;
};

} // namespace aw::uarch

#endif // AW_UARCH_SNOOP_HH
