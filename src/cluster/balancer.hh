/**
 * @file
 * The fleet balancer's per-arrival state, factored out of
 * FleetSim::run so each piece can be tested on its own: the
 * occupancy view with its under-capacity bitmap, and the stream of
 * occupancy estimates drawn ahead on the fleet's thread pool.
 */

#ifndef AW_CLUSTER_BALANCER_HH
#define AW_CLUSTER_BALANCER_HH

#include <cstdint>
#include <future>
#include <vector>

#include "cluster/routing.hh"
#include "power/units.hh"
#include "sim/random.hh"
#include "sim/thread_pool.hh"
#include "sim/types.hh"
#include "workload/service.hh"

namespace aw::cluster {

/**
 * Concrete FleetView over the balancer's outstanding counts. When
 * built with a non-zero pack capacity it keeps a two-level bitmap
 * of the under-capacity servers -- bit i is set iff
 * outstanding(i) < capacity, and one summary bit per bitmap word
 * says whether that word has any bit set -- so pack-first's
 * "lowest-indexed server below capacity" probe is two count-
 * trailing-zeros instead of an O(K) scan across the packed prefix,
 * and each routing decision or completion flips at most two bits.
 * The index answers exactly what the linear scan would.
 */
class BalancerView : public FleetView
{
  public:
    /**
     * @param counts  the outstanding counts, owned by the balancer,
     *                which calls onRouted()/onCompleted() after
     *                each change
     * @param budgets current per-server cap budgets, updated in
     *                place by the balancer at epoch boundaries;
     *                nullptr when no power cap is configured (the
     *                headroom default then makes route-to-headroom
     *                degrade to least-outstanding).
     * @param watts_per_request estimated draw one outstanding
     *                request adds (the ladder-top per-core active
     *                power: each request occupies one core).
     */
    BalancerView(const std::vector<unsigned> &counts,
                 unsigned pack_capacity,
                 const std::vector<power::Watts> *budgets = nullptr,
                 double watts_per_request = 0.0);

    std::size_t servers() const override { return _counts.size(); }
    unsigned outstanding(std::size_t i) const override
    {
        return _counts[i]; // route() is bounded by servers()
    }
    std::size_t firstUnderCapacity(unsigned capacity) const override;
    double headroomWatts(std::size_t i) const override;

    /** Bookkeeping after outstanding(i) went up by one. */
    void onRouted(std::size_t i)
    {
        if (_capacity > 0 && _counts[i] == _capacity)
            clear(i);
    }

    /** Bookkeeping after outstanding(i) went down by one. */
    void onCompleted(std::size_t i)
    {
        if (_capacity > 0 && _counts[i] == _capacity - 1)
            set(i);
    }

  private:
    static constexpr std::uint64_t bit(std::size_t i)
    {
        return std::uint64_t{1} << (i % 64);
    }

    void set(std::size_t i)
    {
        const std::size_t w = i / 64;
        if (_bits[w] == 0)
            _summary[w / 64] |= bit(w);
        _bits[w] |= bit(i);
    }

    void clear(std::size_t i)
    {
        const std::size_t w = i / 64;
        _bits[w] &= ~bit(i);
        if (_bits[w] == 0)
            _summary[w / 64] &= ~bit(w);
    }

    const std::vector<unsigned> &_counts;
    const unsigned _capacity;
    const std::vector<power::Watts> *_budgets;
    const double _wattsPerRequest;
    std::vector<std::uint64_t> _bits;    //!< one bit per server
    std::vector<std::uint64_t> _summary; //!< one bit per _bits word
};

/**
 * The balancer's occupancy estimates: next() returns the k-th
 * service-time draw of @p rng at the service's reference frequency
 * on its k-th call, exactly what drawing inline would return.
 *
 * The draws are made kChunk at a time. With a pool, a pool task
 * draws the next chunk while the balancer consumes the current one,
 * with at most one chunk in flight; without one, the caller draws
 * each chunk itself when the last runs out. Either way one thread
 * at a time advances @p rng, in stream order, so the values cannot
 * depend on the pool. The stream may draw up to two chunks past the
 * last value consumed, so @p rng must be private to it.
 */
class EstimateStream
{
  public:
    static constexpr std::size_t kChunk = 8192;

    EstimateStream(workload::ServiceModel &service, sim::Rng &rng,
                   sim::ThreadPool *pool);
    /** Waits for the chunk in flight, if any. */
    ~EstimateStream();

    EstimateStream(const EstimateStream &) = delete;
    EstimateStream &operator=(const EstimateStream &) = delete;

    sim::Tick next()
    {
        if (_pos == kChunk)
            advance();
        return _ready[_pos++];
    }

  private:
    void fill(std::vector<sim::Tick> &chunk);
    void advance();

    workload::ServiceModel &_service;
    sim::Rng &_rng;
    sim::ThreadPool *const _pool;
    std::vector<sim::Tick> _ready; //!< the chunk being consumed
    std::vector<sim::Tick> _ahead; //!< the chunk being drawn
    std::future<void> _inFlight;   //!< the pool task drawing _ahead
    std::size_t _pos = kChunk;     //!< next value of _ready
};

} // namespace aw::cluster

#endif // AW_CLUSTER_BALANCER_HH
