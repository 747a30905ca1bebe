/**
 * @file
 * The fleet balancer's building blocks in isolation: the
 * under-capacity bitmap must answer exactly what pack-first's linear
 * scan would, and the drawn-ahead estimate stream must yield exactly
 * the direct draw sequence, with or without a pool behind it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/balancer.hh"
#include "sim/random.hh"
#include "sim/thread_pool.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::cluster;

/**
 * Drive one view through a seeded random route/complete sequence
 * from a random starting occupancy, checking the index against the
 * base class's linear scan after every step.
 */
void
checkAgainstScan(std::size_t servers, unsigned capacity,
                 std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<unsigned> counts(servers, 0);

    // Start from a packed prefix of random length (the whole fleet
    // on some seeds), with random occupancy behind it, so the first
    // answer can land in any bitmap word or summary word.
    const std::size_t prefix =
        seed % 4 == 0 ? servers : rng.uniformInt(0, servers);
    for (std::size_t i = 0; i < servers; ++i)
        counts[i] = i < prefix
                        ? capacity
                        : static_cast<unsigned>(
                              rng.uniformInt(0, capacity));
    std::vector<std::size_t> in_flight;
    for (std::size_t i = 0; i < servers; ++i)
        in_flight.insert(in_flight.end(), counts[i], i);

    BalancerView view(counts, capacity);
    ASSERT_EQ(view.firstUnderCapacity(capacity),
              view.FleetView::firstUnderCapacity(capacity));

    for (int step = 0; step < 3000; ++step) {
        // Routes outnumber completions in the first half and the
        // other way round after, so the fleet both fills and drains.
        const double route_p = step < 1500 ? 0.6 : 0.4;
        if (in_flight.empty() || rng.uniform() < route_p) {
            // Pack-first's pick half the time, a random server (which
            // may already be at or above capacity) otherwise.
            std::size_t target = view.firstUnderCapacity(capacity);
            if (target == servers || rng.bernoulli(0.5))
                target = rng.uniformInt(0, servers - 1);
            ++counts[target];
            view.onRouted(target);
            in_flight.push_back(target);
        } else {
            const std::size_t k =
                rng.uniformInt(0, in_flight.size() - 1);
            const std::size_t s = in_flight[k];
            in_flight[k] = in_flight.back();
            in_flight.pop_back();
            --counts[s];
            view.onCompleted(s);
        }
        ASSERT_EQ(view.firstUnderCapacity(capacity),
                  view.FleetView::firstUnderCapacity(capacity))
            << "step " << step;
    }
    // Another capacity than the indexed one falls back to the scan.
    EXPECT_EQ(view.firstUnderCapacity(capacity + 1),
              view.FleetView::firstUnderCapacity(capacity + 1));
}

TEST(FleetBalancer, UnderCapacityIndexMatchesLinearScan)
{
    for (const std::size_t servers :
         {1, 63, 64, 65, 4095, 4096, 4097, 10000}) {
        for (const unsigned capacity : {1u, 5u}) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                SCOPED_TRACE("K=" + std::to_string(servers) +
                             " capacity=" + std::to_string(capacity) +
                             " seed=" + std::to_string(seed));
                checkAgainstScan(servers, capacity, seed);
            }
        }
    }
}

/**
 * Pull @p n values from a fresh stream and from direct draws on an
 * identically seeded generator.
 */
void
expectDirectSequence(sim::ThreadPool *pool, std::size_t n)
{
    // One model per side: the stream's may be drawn on a worker.
    const auto profile = workload::WorkloadProfile::memcached();
    const auto reference = workload::WorkloadProfile::memcached();
    workload::ServiceModel &service = reference.service();
    const sim::Frequency ref = service.referenceFrequency();

    sim::Rng direct(17);
    sim::Rng streamed(17);
    EstimateStream stream(profile.service(), streamed, pool);
    for (std::size_t k = 0; k < n; ++k)
        ASSERT_EQ(stream.next(), service.draw(direct).duration(ref))
            << "draw " << k;
}

TEST(FleetBalancer, EstimateStreamYieldsTheDirectDrawSequence)
{
    // Several chunk switches, ending mid-chunk; then a stream torn
    // down with its first chunk still in flight.
    const std::size_t n = 3 * EstimateStream::kChunk + 123;
    expectDirectSequence(nullptr, n);
    sim::ThreadPool pool(2);
    expectDirectSequence(&pool, n);
    expectDirectSequence(&pool, 1);
    expectDirectSequence(&pool, 0);
}

} // namespace
