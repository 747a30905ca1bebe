#include "cluster/routing.hh"

#include "sim/logging.hh"
#include "sim/registry.hh"

namespace aw::cluster {

std::size_t
FleetView::firstUnderCapacity(unsigned capacity) const
{
    const std::size_t n = servers();
    for (std::size_t i = 0; i < n; ++i)
        if (outstanding(i) < capacity)
            return i;
    return n;
}

std::size_t
RoundRobinRouting::route(const FleetView &view, sim::Rng &)
{
    return _next++ % view.servers();
}

std::size_t
RandomRouting::route(const FleetView &view, sim::Rng &rng)
{
    return static_cast<std::size_t>(
        rng.uniformInt(0, view.servers() - 1));
}

std::size_t
LeastOutstandingRouting::route(const FleetView &view, sim::Rng &)
{
    const std::size_t n = view.servers();
    if (n == 0)
        return 0;
    std::size_t best = 0;
    unsigned best_out = view.outstanding(0);
    for (std::size_t i = 1; i < n; ++i) {
        const unsigned out = view.outstanding(i);
        if (out < best_out) {
            best = i;
            best_out = out;
        }
    }
    return best;
}

PackFirstRouting::PackFirstRouting(unsigned capacity)
    : _capacity(capacity)
{
    if (capacity == 0)
        sim::fatal("PackFirstRouting: capacity must be positive");
}

std::size_t
PackFirstRouting::route(const FleetView &view, sim::Rng &)
{
    const std::size_t n = view.servers();
    if (n == 0)
        return 0;
    const std::size_t first = view.firstUnderCapacity(_capacity);
    if (first < n)
        return first;
    // Everyone at capacity: spill to the least loaded.
    std::size_t best = 0;
    unsigned best_out = view.outstanding(0);
    for (std::size_t i = 1; i < n; ++i) {
        const unsigned out = view.outstanding(i);
        if (out < best_out) {
            best = i;
            best_out = out;
        }
    }
    return best;
}

std::size_t
RouteToHeadroomRouting::route(const FleetView &view, sim::Rng &)
{
    const std::size_t n = view.servers();
    if (n == 0)
        return 0;
    std::size_t best = 0;
    double best_headroom = view.headroomWatts(0);
    for (std::size_t i = 1; i < n; ++i) {
        const double headroom = view.headroomWatts(i);
        if (headroom > best_headroom) {
            best = i;
            best_headroom = headroom;
        }
    }
    return best;
}

namespace {

using Factory = std::unique_ptr<RoutingPolicy> (*)(unsigned pack_capacity);

template <typename R>
std::unique_ptr<RoutingPolicy>
build(unsigned)
{
    return std::make_unique<R>();
}

const sim::RegistryEntry<Factory> kRoutingPolicies[] = {
    {"round-robin", &build<RoundRobinRouting>},
    {"random", &build<RandomRouting>},
    {"least-outstanding", &build<LeastOutstandingRouting>},
    {"pack-first",
     [](unsigned pack_capacity) -> std::unique_ptr<RoutingPolicy> {
         return std::make_unique<PackFirstRouting>(pack_capacity);
     }},
    {"route-to-headroom", &build<RouteToHeadroomRouting>},
};

} // namespace

std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(const std::string &name, unsigned pack_capacity)
{
    return sim::byName(kRoutingPolicies, name, "routing policy")(
        pack_capacity);
}

const std::vector<std::string> &
routingPolicyNames()
{
    static const std::vector<std::string> names =
        sim::registryNames(kRoutingPolicies);
    return names;
}

} // namespace aw::cluster
