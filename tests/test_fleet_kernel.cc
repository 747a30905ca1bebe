/**
 * @file
 * Epoch-parallel fleet kernel tests: the determinism contract of
 * the warehouse-scale execution path.
 *
 * The kernel's promise is that its three levers -- per-server worker
 * threads, routing-decision epochs, and the homogeneous-idle fast
 * path -- are pure execution strategies: every FleetResult field and
 * every emitted artifact byte must match the serial reference
 * exactly. These tests pin that promise at the awkward geometries
 * (K=1, K far above the outstanding count, an epoch boundary landing
 * exactly on a routing decision) and across 1/2/8 fleet threads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/balancer.hh"
#include "cluster/fleet.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "workload/profiles.hh"
#include "workload/trace.hh"

namespace {

using namespace aw;
using namespace aw::cluster;

FleetConfig
kernelFleet(const std::string &routing, unsigned servers)
{
    FleetConfig fc;
    fc.servers = servers;
    fc.server = server::ServerConfig::legacyC1C6();
    fc.server.cores = 4;
    fc.server.idlePromotion = true;
    fc.routing = routing;
    return fc;
}

/** Assert two fleet runs are the same run, field for field. */
void
expectSameRun(const FleetResult &a, const FleetResult &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.routedPerServer, b.routedPerServer);
    EXPECT_EQ(a.neverRouted, b.neverRouted);
    EXPECT_DOUBLE_EQ(a.fleetPower, b.fleetPower);
    EXPECT_DOUBLE_EQ(a.fleetEnergy, b.fleetEnergy);
    EXPECT_DOUBLE_EQ(a.energyPerRequestMj, b.energyPerRequestMj);
    EXPECT_DOUBLE_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_DOUBLE_EQ(a.p99LatencyUs, b.p99LatencyUs);
    EXPECT_DOUBLE_EQ(a.p999LatencyUs, b.p999LatencyUs);
    EXPECT_DOUBLE_EQ(a.deepIdleShare, b.deepIdleShare);
    EXPECT_DOUBLE_EQ(a.minServerDeepShare, b.minServerDeepShare);
    EXPECT_DOUBLE_EQ(a.maxServerDeepShare, b.maxServerDeepShare);
    EXPECT_DOUBLE_EQ(a.busiestShareOfLoad, b.busiestShareOfLoad);
    ASSERT_EQ(a.perServer.size(), b.perServer.size());
    for (std::size_t i = 0; i < a.perServer.size(); ++i) {
        EXPECT_EQ(a.perServer[i].requests, b.perServer[i].requests)
            << "server " << i;
        EXPECT_DOUBLE_EQ(a.perServer[i].coreEnergy,
                         b.perServer[i].coreEnergy)
            << "server " << i;
        EXPECT_DOUBLE_EQ(a.perServer[i].avgLatencyUs,
                         b.perServer[i].avgLatencyUs)
            << "server " << i;
    }
}

// ------------------------------------------------- edge geometries

TEST(FleetKernel, SingleServerFleetRoutesEverythingToIt)
{
    // K=1 degenerates every policy to "route to server 0"; the
    // kernel must handle the one-slot partition (and a worker count
    // above the server count) without special-casing.
    for (const char *routing : {"round-robin", "pack-first"}) {
        auto fc = kernelFleet(routing, 1);
        fc.fleetThreads = 8; // more workers than servers
        FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                       20e3);
        const auto r =
            fleet.run(sim::fromMs(60.0), sim::fromMs(6.0));
        ASSERT_EQ(r.routedPerServer.size(), 1u);
        EXPECT_EQ(r.routedPerServer[0], r.routed);
        EXPECT_GT(r.requests, 0u);
        EXPECT_EQ(r.neverRouted, 0u);
        EXPECT_DOUBLE_EQ(r.busiestShareOfLoad, 1.0);
    }
}

TEST(FleetKernel, MoreServersThanOutstandingLeavesSparesIdle)
{
    // K far above the outstanding request count: pack-first
    // concentrates the trickle of load on the first server(s) and
    // the spares never see an arrival. Those spares are exactly the
    // homogeneous-idle fast path's population -- and their runs
    // must be identical to each other (idle evolution draws no
    // per-server randomness).
    auto fc = kernelFleet("pack-first", 32);
    FleetSim fleet(fc, workload::WorkloadProfile::memcached(), 4e3);
    const auto r = fleet.run(sim::fromMs(60.0), sim::fromMs(6.0));

    EXPECT_GT(r.neverRouted, 0u);
    ASSERT_EQ(r.perServer.size(), 32u);
    std::vector<unsigned> idle;
    for (unsigned i = 0; i < 32; ++i)
        if (r.routedPerServer[i] == 0)
            idle.push_back(i);
    ASSERT_EQ(idle.size(), r.neverRouted);
    ASSERT_GE(idle.size(), 2u);
    for (std::size_t k = 1; k < idle.size(); ++k) {
        EXPECT_DOUBLE_EQ(r.perServer[idle[0]].coreEnergy,
                         r.perServer[idle[k]].coreEnergy);
        EXPECT_EQ(r.perServer[idle[0]].requests,
                  r.perServer[idle[k]].requests);
        EXPECT_EQ(r.perServer[idle[0]].events,
                  r.perServer[idle[k]].events);
    }
    // Round-robin, by contrast, touches every server.
    FleetSim spread(kernelFleet("round-robin", 32),
                    workload::WorkloadProfile::memcached(), 4e3);
    EXPECT_EQ(
        spread.run(sim::fromMs(60.0), sim::fromMs(6.0)).neverRouted,
        0u);
}

TEST(FleetKernel, IdleFastPathIsBitIdentical)
{
    // The memoization contract: reusing one idle reference run for
    // every never-routed server must reproduce the
    // simulate-everything reference bit for bit, events included.
    auto once = [](bool fast_path) {
        auto fc = kernelFleet("pack-first", 24);
        fc.idleFastPath = fast_path;
        FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                       5e3);
        return fleet.run(sim::fromMs(80.0), sim::fromMs(8.0));
    };
    const auto fast = once(true);
    const auto reference = once(false);
    EXPECT_GT(fast.neverRouted, 0u); // the path actually engaged
    expectSameRun(fast, reference);
}

TEST(FleetKernel, EpochBoundaryOnRoutingDecisionIsInvisible)
{
    // Deterministic arrivals every 50 us make every routing decision
    // land on a multiple of 50 us; a 1 ms epoch puts a boundary
    // drain exactly ON every 20th decision. The boundary drain must
    // pop exactly what the per-decision drain would have popped, so
    // aligned, misaligned and absent epochs are all the same run.
    auto once = [](double epoch_s) {
        workload::ArrivalTrace trace(
            std::vector<sim::Tick>(40, sim::fromUs(50.0)));
        auto fc = kernelFleet("pack-first", 4);
        fc.epochSeconds = epoch_s;
        FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                       20e3);
        fleet.setArrivalTrace(trace);
        return fleet.run(sim::fromMs(40.0), sim::fromMs(4.0));
    };
    const auto one_epoch = once(0.0);
    const auto aligned = once(1e-3);   // boundary == decision tick
    const auto offbeat = once(3.7e-4); // boundary between decisions
    EXPECT_GT(one_epoch.requests, 0u);
    expectSameRun(one_epoch, aligned);
    expectSameRun(one_epoch, offbeat);
}

TEST(FleetKernel, ThreadCountAndEpochAreInvisibleTogether)
{
    auto once = [](unsigned threads, double epoch_s) {
        auto fc = kernelFleet("pack-first", 8);
        fc.fleetThreads = threads;
        fc.epochSeconds = epoch_s;
        FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                       30e3);
        return fleet.run(sim::fromMs(60.0), sim::fromMs(6.0));
    };
    const auto serial = once(1, 0.0);
    expectSameRun(serial, once(2, 0.0));
    expectSameRun(serial, once(8, 0.0));
    expectSameRun(serial, once(8, 0.01));
    expectSameRun(serial, once(2, 0.013)); // misaligned epoch
}

// ------------------------------------------- artifact byte identity

TEST(FleetKernel, SweepArtifactsAreByteIdenticalAcrossKernelKnobs)
{
    // The full artifact surface -- sweep CSV/JSON, the aw-timeline/3
    // fold and the aw-trace/1 attribution -- rendered from the
    // serial reference and from every kernel configuration must be
    // the same bytes.
    auto sweep = [](unsigned fleet_threads, double epoch_s) {
        exp::ExperimentSpec spec;
        spec.name = "kernel-identity";
        spec.workloads = {"memcached"};
        spec.configs = {"aw", "c1c6"};
        spec.policies = {"round-robin", "pack-first"};
        spec.fleetSizes = {8};
        spec.qps = {300e3};
        spec.seconds = 0.1;
        spec.seed = 42;
        spec.timelineIntervalSeconds = 0.01;
        spec.traceRequests = true;
        spec.fleetThreads = fleet_threads;
        spec.epochSeconds = epoch_s;
        return exp::SweepRunner(1).run(spec);
    };
    const auto reference = sweep(1, 0.0);
    const std::string csv = exp::toCsv(reference);
    const std::string json = exp::toJson(reference);
    const std::string timeline = exp::toTimelineCsv(reference);
    const std::string trace = exp::toTraceCsv(reference);
    struct Knobs
    {
        unsigned threads;
        double epoch;
    };
    for (const Knobs k : {Knobs{2, 0.0}, Knobs{8, 0.0},
                          Knobs{8, 0.02}, Knobs{2, 0.0073}}) {
        const auto result = sweep(k.threads, k.epoch);
        EXPECT_EQ(exp::toCsv(result), csv)
            << "threads=" << k.threads << " epoch=" << k.epoch;
        EXPECT_EQ(exp::toJson(result), json)
            << "threads=" << k.threads << " epoch=" << k.epoch;
        EXPECT_EQ(exp::toTimelineCsv(result), timeline)
            << "threads=" << k.threads << " epoch=" << k.epoch;
        EXPECT_EQ(exp::toTraceCsv(result), trace)
            << "threads=" << k.threads << " epoch=" << k.epoch;
    }
}

// --------------------------------------------- scale (the headline)

TEST(FleetKernel, PackFirstPlusAwBeatsSpreadTunedC6AtFleetScale)
{
    // The fleet_10k claim in miniature: on a mostly-idle diurnal
    // fleet, consolidating onto few servers under the AW config
    // draws less power than spreading the same load round-robin
    // over tuned-C6 servers -- the PR-2 power gap, reproduced
    // through the epoch-parallel kernel with the fast path on.
    auto once = [](const char *config, const char *routing) {
        FleetConfig fc;
        fc.servers = 100;
        fc.server = exp::configByName(config);
        fc.server.idlePromotion = true;
        fc.routing = routing;
        fc.seed = 42;
        fc.schedule = cluster::RateSchedule::sinusoidal(
            sim::fromMs(200.0), 0.6);
        fc.fleetThreads = 0; // hardware concurrency
        fc.epochSeconds = 0.05;
        FleetSim fleet(fc, exp::profileByName("memcached"), 30e3);
        return fleet.run(sim::fromMs(200.0), sim::fromMs(20.0));
    };
    const auto packed = once("aw", "pack-first");
    const auto spread = once("c1c6", "round-robin");
    EXPECT_GT(packed.neverRouted, 50u); // mostly-idle fleet
    EXPECT_EQ(spread.neverRouted, 0u);
    EXPECT_LT(packed.fleetPower, spread.fleetPower);
    EXPECT_GT(packed.maxServerDeepShare, 0.95);
}

// -------------------------------------------- pooled latency bits

/**
 * One fleet whose pooled latency triple is pinned to the bit. The
 * goldens print ten significant digits, so a change in how the
 * fleet fold sums or ranks its samples (summation order, a
 * different percentile rank) could slip past them; these cases
 * cannot.
 */
struct PinnedFleet
{
    const char *name;
    FleetConfig (*make)();
    double qps;
    double seconds;
    double avgUs;
    double p99Us;
    double p999Us;
    bool reusesIdle = false;
};

void
PrintTo(const PinnedFleet &c, std::ostream *os)
{
    *os << c.name;
}

FleetConfig
pinnedSpread(const char *routing)
{
    auto fc = kernelFleet(routing, 8);
    fc.seed = 7;
    fc.fleetThreads = 2;
    return fc;
}

FleetConfig
cappedHeadroom()
{
    // Headroom routing against real budgets, re-dealt every 20 ms.
    auto fc = pinnedSpread("route-to-headroom");
    fc.server.cap.capWatts = 20.0;
    fc.epochSeconds = 0.02;
    return fc;
}

FleetConfig
cappedRoundRobin()
{
    // Budget redistribution on: the planner re-deals a 16 W/server
    // fleet budget every 20 ms across a flash crowd.
    FleetConfig fc;
    fc.servers = 4;
    fc.server = exp::configByName("aw");
    fc.server.idlePromotion = true;
    fc.server.cap.capWatts = 16.0;
    fc.routing = "round-robin";
    fc.seed = 42;
    fc.epochSeconds = 0.02;
    fc.schedule =
        cluster::RateSchedule::flashCrowd(sim::fromSec(0.2), 3.0);
    return fc;
}

FleetConfig
packFirstWithIdleReuse()
{
    // Far more servers than outstanding work: most of the fleet is
    // never routed and shares the idle reference run.
    auto fc = kernelFleet("pack-first", 24);
    fc.fleetThreads = 2;
    return fc;
}

std::string
hexfloat(double v)
{
    std::ostringstream os;
    os << std::hexfloat << v;
    return os.str();
}

class FleetLatencyBits : public testing::TestWithParam<PinnedFleet>
{};

TEST_P(FleetLatencyBits, PooledTripleIsBitExact)
{
    const PinnedFleet &c = GetParam();
    FleetSim fleet(c.make(), workload::WorkloadProfile::memcached(),
                   c.qps);
    const sim::Tick duration = sim::fromSec(c.seconds);
    const auto r = fleet.run(duration, duration / 10);
    if (c.reusesIdle) {
        EXPECT_GT(r.neverRouted, 1u); // the idle reuse engaged
    }
    EXPECT_EQ(r.avgLatencyUs, c.avgUs)
        << "avg " << hexfloat(r.avgLatencyUs) << " pinned "
        << hexfloat(c.avgUs);
    EXPECT_EQ(r.p99LatencyUs, c.p99Us)
        << "p99 " << hexfloat(r.p99LatencyUs) << " pinned "
        << hexfloat(c.p99Us);
    EXPECT_EQ(r.p999LatencyUs, c.p999Us)
        << "p99.9 " << hexfloat(r.p999LatencyUs) << " pinned "
        << hexfloat(c.p999Us);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, FleetLatencyBits,
    testing::Values(
        PinnedFleet{"round_robin",
                    [] { return pinnedSpread("round-robin"); },
                    60e3, 0.08,
                    0x1.1721152530fd4p+3,
                    0x1.5ee601bc98a22p+5,
                    0x1.244a697aeddcep+6},
        PinnedFleet{"random",
                    [] { return pinnedSpread("random"); },
                    60e3, 0.08,
                    0x1.481b393c4d3c6p+3,
                    0x1.7a87ad080b674p+5,
                    0x1.3a89cd3e0bd45p+6},
        PinnedFleet{"least_outstanding",
                    [] { return pinnedSpread("least-outstanding"); },
                    60e3, 0.08,
                    0x1.33934f6196ec6p+3,
                    0x1.5dd60956c0d6fp+5,
                    0x1.5f89363f572dep+6},
        PinnedFleet{"pack_first",
                    [] { return pinnedSpread("pack-first"); },
                    60e3, 0.08,
                    0x1.2ac39de0d4ff5p+3,
                    0x1.566a8650e7792p+5,
                    0x1.605f7dfa00e28p+6},
        PinnedFleet{"route_to_headroom",
                    cappedHeadroom,
                    60e3, 0.08,
                    0x1.bcee352ac36f4p+6,
                    0x1.290ca4db163bbp+10,
                    0x1.abcd26809d495p+10},
        PinnedFleet{"capped_round_robin",
                    cappedRoundRobin,
                    150e3, 0.2,
                    0x1.6ea0a9e4a01b5p+13,
                    0x1.037ee6db7282p+15,
                    0x1.1310d550ebaaep+15},
        PinnedFleet{"pack_first_idle_reuse",
                    packFirstWithIdleReuse,
                    5e3, 0.08,
                    0x1.928e350abf415p+4,
                    0x1.0c6f00ef1348bp+6,
                    0x1.d8afb3b752114p+6, true}),
    [](const testing::TestParamInfo<PinnedFleet> &info) {
        return std::string(info.param.name);
    });

// ------------------------------------------- idle promotion into C6

/**
 * OS-tick idle promotion runs the deeper state's entry flow on a core
 * that is already idle. Promotion into C6 flushes the private caches
 * *before* it reads the C6 entry latency, so it pays only the tag
 * scan, while a governor-picked or forced C6 entry reads the latency
 * (dirty write-backs included) first. Pack-first under a flash crowd
 * leaves spare cores idle past the promotion tick, so these fleets
 * promote; their power moves if the two steps trade places, which
 * the FleetLatencyBits fleets (no long idle) cannot see.
 */
FleetConfig
promotingFleet(const char *config)
{
    auto fc = kernelFleet("pack-first", 4);
    fc.server = exp::configByName(config);
    fc.server.cores = 4;
    fc.server.idlePromotion = true;
    fc.seed = 7;
    fc.schedule =
        cluster::RateSchedule::flashCrowd(sim::fromSec(0.2), 3.0);
    return fc;
}

TEST(FleetKernel, IdlePromotionEntryFlowIsBitExact)
{
    struct Pinned
    {
        const char *config;
        double avgUs;
        double p99Us;
        double watts;
    };
    const Pinned cases[] = {
        {"c1c6", 0x1.1eef411f35bc6p+3, 0x1.46961b2a27f1bp+5,
         0x1.434c837d491d4p+6},
        {"aw", 0x1.5c16864a91dcap+3, 0x1.34b94c87980f5p+5,
         0x1.333d3a1445e1ep+6},
    };
    for (const Pinned &c : cases) {
        FleetSim fleet(promotingFleet(c.config),
                       workload::WorkloadProfile::memcached(), 20e3);
        const sim::Tick duration = sim::fromSec(0.2);
        const auto r = fleet.run(duration, duration / 10);
        EXPECT_EQ(r.avgLatencyUs, c.avgUs)
            << c.config << " avg " << hexfloat(r.avgLatencyUs);
        EXPECT_EQ(r.p99LatencyUs, c.p99Us)
            << c.config << " p99 " << hexfloat(r.p99LatencyUs);
        EXPECT_EQ(r.fleetPower, c.watts)
            << c.config << " power " << hexfloat(r.fleetPower);
    }
}

// ----------------------------------------- estimate chunk boundaries

/**
 * The balancer draws its occupancy estimates EstimateStream::kChunk
 * at a time, ahead on the fleet pool when there is one. These fleets
 * route across several chunk switches and stop mid-chunk, so a
 * producer that skipped, repeated or reordered a chunk, or raced the
 * balancer, would move the run at some thread count; the pinned
 * triples were recorded before the estimates were drawn ahead.
 */
TEST(FleetKernel, EstimateChunkBoundariesAreInvisibleAcrossThreads)
{
    const PinnedFleet fleets[] = {
        {"pack_first", [] { return pinnedSpread("pack-first"); },
         60e3, 0.5,
         0x1.2b6aec0fd858fp+3,
         0x1.5ac21d10b1fefp+5,
         0x1.2df88c1db0143p+6},
        {"capped_route_to_headroom", cappedHeadroom,
         60e3, 0.5,
         0x1.0f73ba5974863p+3,
         0x1.3988909289daep+5,
         0x1.33bc065b63d3ep+6},
    };
    for (const PinnedFleet &c : fleets) {
        SCOPED_TRACE(c.name);
        const auto once = [&c](unsigned threads) {
            auto fc = c.make();
            fc.fleetThreads = threads;
            FleetSim fleet(fc, workload::WorkloadProfile::memcached(),
                           c.qps);
            const sim::Tick duration = sim::fromSec(c.seconds);
            return fleet.run(duration, duration / 10);
        };
        const auto serial = once(1);
        ASSERT_GT(serial.routed, 3 * EstimateStream::kChunk);
        ASSERT_NE(serial.routed % EstimateStream::kChunk, 0u);
        for (const unsigned threads : {1u, 2u, 8u}) {
            SCOPED_TRACE("fleetThreads=" + std::to_string(threads));
            const auto r = threads == 1 ? serial : once(threads);
            expectSameRun(serial, r);
            EXPECT_EQ(r.avgLatencyUs, c.avgUs)
                << "avg " << hexfloat(r.avgLatencyUs);
            EXPECT_EQ(r.p99LatencyUs, c.p99Us)
                << "p99 " << hexfloat(r.p99LatencyUs);
            EXPECT_EQ(r.p999LatencyUs, c.p999Us)
                << "p99.9 " << hexfloat(r.p999LatencyUs);
        }
    }
}

// ----------------------------------------------------- validation

TEST(FleetKernelDeathTest, RejectsBadEpochLength)
{
    const auto profile = workload::WorkloadProfile::memcached();
    auto fc = kernelFleet("round-robin", 2);
    fc.epochSeconds = -0.5;
    EXPECT_EXIT(FleetSim(fc, profile, 1e3),
                testing::ExitedWithCode(1), "epoch");
    fc.epochSeconds = std::nan("");
    EXPECT_EXIT(FleetSim(fc, profile, 1e3),
                testing::ExitedWithCode(1), "epoch");
}

} // namespace
