/**
 * @file
 * Tests for the whole-server simulation driver.
 */

#include <gtest/gtest.h>

#include <memory>

#include "server/server_sim.hh"
#include "workload/profiles.hh"
#include "workload/trace.hh"

namespace {

using namespace aw;
using namespace aw::server;
using namespace aw::sim;

RunResult
quickRun(const ServerConfig &cfg, double qps)
{
    ServerSim srv(cfg, workload::WorkloadProfile::memcached(), qps);
    return srv.run(fromSec(0.5), fromMs(50.0));
}

TEST(ServerSim, AchievedRateTracksOffered)
{
    const auto r = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_NEAR(r.achievedQps, 100e3, 5e3);
    EXPECT_GT(r.requests, 10000u);
}

TEST(ServerSim, ResultFieldsPopulated)
{
    const auto r = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_EQ(r.configName, "Baseline");
    EXPECT_EQ(r.workloadName, "memcached");
    EXPECT_GT(r.avgLatencyUs, 0.0);
    EXPECT_GE(r.p99LatencyUs, r.avgLatencyUs);
    EXPECT_GT(r.avgCorePower, 0.0);
    EXPECT_GT(r.packagePower, r.avgCorePower);
    EXPECT_GT(r.coreEnergy, 0.0);
    EXPECT_GT(r.window, Tick(0));
}

TEST(ServerSim, EndToEndAddsNetworkConstant)
{
    const auto r = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_NEAR(r.avgLatencyE2eUs - r.avgLatencyUs, 117.0, 1e-9);
    EXPECT_NEAR(r.p99LatencyE2eUs - r.p99LatencyUs, 117.0, 1e-9);
}

TEST(ServerSim, ResidencySharesSumToOne)
{
    const auto r = quickRun(ServerConfig::baseline(), 200e3);
    EXPECT_NEAR(r.residency.totalShare(), 1.0, 1e-6);
}

TEST(ServerSim, C0ResidencyGrowsWithLoad)
{
    const auto lo = quickRun(ServerConfig::baseline(), 50e3);
    const auto hi = quickRun(ServerConfig::baseline(), 400e3);
    EXPECT_GT(hi.residency.shareOf(cstate::CStateId::C0),
              lo.residency.shareOf(cstate::CStateId::C0));
}

TEST(ServerSim, AwSavesPowerAtEveryLoad)
{
    for (const double qps : {20e3, 100e3, 400e3}) {
        const auto base = quickRun(ServerConfig::baseline(), qps);
        const auto agile = quickRun(ServerConfig::awBaseline(), qps);
        EXPECT_LT(agile.avgCorePower, base.avgCorePower)
            << "qps=" << qps;
    }
}

TEST(ServerSim, AwLatencyImpactIsSmall)
{
    const auto base = quickRun(ServerConfig::baseline(), 100e3);
    const auto agile = quickRun(ServerConfig::awBaseline(), 100e3);
    // Paper: <1.3% tail and <1% average degradation. Allow a
    // little simulation noise on top.
    EXPECT_LT(agile.avgLatencyUs,
              base.avgLatencyUs * 1.05);
    EXPECT_LT(agile.p99LatencyUs, base.p99LatencyUs * 1.10);
}

TEST(ServerSim, PackagePowerIncludesUncore)
{
    ServerConfig cfg = ServerConfig::baseline();
    cfg.uncorePower = 18.0;
    ServerSim srv(cfg, workload::WorkloadProfile::memcached(),
                  100e3);
    const auto r = srv.run(fromSec(0.3), fromMs(30.0));
    EXPECT_NEAR(r.packagePower,
                r.avgCorePower * cfg.cores + 18.0, 1e-9);
}

TEST(ServerSim, MemcachedNeverReachesC6AtModerateLoad)
{
    // The Sec 2 observation: at >=20% load (here 200+ KQPS) cores
    // never go deeper than C1.
    const auto r = quickRun(ServerConfig::baseline(), 300e3);
    EXPECT_LT(r.residency.shareOf(cstate::CStateId::C6), 0.01);
}

TEST(ServerSim, SweepRatesReturnsOnePerLevel)
{
    const auto profile = workload::WorkloadProfile::memcached();
    const std::vector<double> rates{50e3, 100e3};
    const auto results =
        sweepRates(ServerConfig::baseline(), profile, rates,
                   fromSec(0.2), fromMs(20.0));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_DOUBLE_EQ(results[0].offeredQps, 50e3);
    EXPECT_DOUBLE_EQ(results[1].offeredQps, 100e3);
}

TEST(ServerSim, TransitionsPerRequestIsSane)
{
    const auto r = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_GT(r.transitionsPerRequest, 0.0);
    EXPECT_LE(r.transitionsPerRequest, 1.5);
}

TEST(ServerSimDeathTest, ValidatesConfig)
{
    const auto profile = workload::WorkloadProfile::memcached();
    ServerConfig cfg = ServerConfig::baseline();
    cfg.cores = 0;
    EXPECT_EXIT(ServerSim(cfg, profile, 100e3),
                ::testing::ExitedWithCode(1), "core");
    EXPECT_EXIT(ServerSim(ServerConfig::baseline(), profile, 0.0),
                ::testing::ExitedWithCode(1), "load");
}

TEST(ServerSim, DeterministicAcrossRunsWithSameSeed)
{
    const auto a = quickRun(ServerConfig::baseline(), 100e3);
    const auto b = quickRun(ServerConfig::baseline(), 100e3);
    EXPECT_DOUBLE_EQ(a.avgCorePower, b.avgCorePower);
    EXPECT_DOUBLE_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_EQ(a.requests, b.requests);
}

TEST(ServerSim, SeedChangesResults)
{
    ServerConfig cfg = ServerConfig::baseline();
    cfg.seed = 1234;
    const auto profile = workload::WorkloadProfile::memcached();
    ServerSim a(ServerConfig::baseline(), profile, 100e3);
    ServerSim b(cfg, profile, 100e3);
    const auto ra = a.run(fromSec(0.3), fromMs(30.0));
    const auto rb = b.run(fromSec(0.3), fromMs(30.0));
    EXPECT_NE(ra.requests, rb.requests);
}

TEST(ServerSim, ExternalTraceDrivesCentralDispatch)
{
    // 200 arrivals, one every 100 us, non-looping: every request
    // must be dispatched (round-robin across cores under Static)
    // and completed within the window.
    const auto profile = workload::WorkloadProfile::memcached();
    workload::ArrivalTrace trace(
        std::vector<Tick>(200, fromUs(100.0)));
    ServerSim srv(ServerConfig::baseline(), profile,
                  std::make_unique<workload::TraceArrivals>(
                      trace, /*loop=*/false));
    const auto r = srv.run(fromMs(30.0), 0);
    EXPECT_EQ(r.requests, 200u);
    EXPECT_NEAR(r.offeredQps, 10e3, 1.0);
    EXPECT_GT(r.avgLatencyUs, 0.0);
}

TEST(ServerSim, ExternalTraceReplayIsDeterministic)
{
    const auto profile = workload::WorkloadProfile::memcached();
    workload::PoissonArrivals src(20e3);
    Rng rec_rng(11);
    const auto trace =
        workload::ArrivalTrace::record(src, rec_rng, 2000);
    auto once = [&]() {
        ServerSim srv(ServerConfig::awBaseline(), profile,
                      std::make_unique<workload::TraceArrivals>(
                          trace, /*loop=*/true));
        return srv.run(fromMs(50.0), fromMs(5.0));
    };
    const auto a = once(), b = once();
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_DOUBLE_EQ(a.coreEnergy, b.coreEnergy);
    EXPECT_DOUBLE_EQ(a.p99LatencyUs, b.p99LatencyUs);
}

TEST(ServerSim, OnlyADispatchingServerHoldsADispatcherEngine)
{
    // Static dispatch: each core draws its own arrivals and the
    // server holds no dispatcher engine. Packing and trace replay
    // dispatch centrally: one engine, and none in the cores.
    const auto profile = workload::WorkloadProfile::memcached();
    ServerConfig cfg = ServerConfig::baseline();
    cfg.snoopRatePerSec = 0.0;
    const ServerSim spread(cfg, profile, 50e3);
    EXPECT_EQ(spread.engineBytes(), cfg.cores * sizeof(Rng));

    cfg.dispatch = DispatchPolicy::Packing;
    const ServerSim packed(cfg, profile, 50e3);
    EXPECT_EQ(packed.engineBytes(), sizeof(Rng));

    cfg.dispatch = DispatchPolicy::Static;
    const ServerSim replay(
        cfg, profile,
        std::make_unique<workload::TraceArrivals>(
            workload::ArrivalTrace(std::vector<Tick>(4, fromUs(10.0))),
            /*loop=*/true));
    EXPECT_EQ(replay.engineBytes(), sizeof(Rng));
}

TEST(ServerSimDeathTest, RejectsNullArrivalStream)
{
    const auto profile = workload::WorkloadProfile::memcached();
    EXPECT_EXIT(
        ServerSim(ServerConfig::baseline(), profile,
                  std::unique_ptr<workload::ArrivalProcess>{}),
        ::testing::ExitedWithCode(1), "null arrival");
}

} // namespace
