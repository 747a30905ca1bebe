/**
 * @file
 * Unit tests for the per-core state machine.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "cstate/governors.hh"
#include "server/core_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::server;
using namespace aw::sim;

struct CoreHarness
{
    explicit CoreHarness(ServerConfig config,
                         double per_core_rate = 5000.0)
        : cfg(std::move(config)),
          profile(workload::WorkloadProfile::memcached()),
          governor(cstate::makeGovernor(cfg.governor, cfg.cstates)),
          core(simr, cfg, *governor, /*freq_proto=*/nullptr,
               aw_model, profile, per_core_rate, 0,
               [this](const workload::Request &req) {
                   latencies.push_back(toUs(req.serverLatency()));
               })
    {
    }

    Simulator simr;
    ServerConfig cfg;
    core::AwCoreModel aw_model;
    workload::WorkloadProfile profile;
    std::unique_ptr<cstate::GovernorPolicy> governor;
    std::vector<double> latencies;
    CoreSim core;
};

TEST(CoreSim, ServesRequests)
{
    CoreHarness h(ServerConfig::baseline());
    h.core.start();
    h.simr.run(fromSec(0.5));
    EXPECT_GT(h.core.requestsCompleted(), 1000u);
    EXPECT_EQ(h.latencies.size(), h.core.requestsCompleted());
}

TEST(CoreSim, ResidencySharesSumToOne)
{
    CoreHarness h(ServerConfig::baseline());
    h.core.start();
    h.simr.run(fromSec(0.5));
    EXPECT_NEAR(h.core.residency().totalShare(), 1.0, 1e-6);
}

TEST(CoreSim, EnergyIsPositiveAndBounded)
{
    CoreHarness h(ServerConfig::baseline());
    h.core.start();
    h.simr.run(fromSec(0.5));
    const double avg = h.core.averagePower();
    // Between the deepest idle power and the boost power.
    EXPECT_GT(avg, 0.05);
    EXPECT_LT(avg, 7.5);
}

TEST(CoreSim, AwFrequencyDegradationApplied)
{
    CoreHarness legacy(ServerConfig::baseline());
    CoreHarness agile(ServerConfig::awBaseline());
    EXPECT_DOUBLE_EQ(
        legacy.core.effectiveBaseFrequency().gigahertz(), 2.2);
    EXPECT_NEAR(agile.core.effectiveBaseFrequency().gigahertz(),
                2.2 * 0.99, 1e-9);
}

TEST(CoreSim, AwUsesAwStates)
{
    CoreHarness h(ServerConfig::awBaseline());
    h.core.start();
    h.simr.run(fromSec(0.5));
    const auto res = h.core.residency();
    EXPECT_EQ(res.shareOf(cstate::CStateId::C1), 0.0);
    EXPECT_GT(res.shareOf(cstate::CStateId::C6A) +
                  res.shareOf(cstate::CStateId::C6AE),
              0.0);
}

TEST(CoreSim, LegacyNeverUsesAwStates)
{
    CoreHarness h(ServerConfig::baseline());
    h.core.start();
    h.simr.run(fromSec(0.5));
    const auto res = h.core.residency();
    EXPECT_EQ(res.shareOf(cstate::CStateId::C6A), 0.0);
    EXPECT_EQ(res.shareOf(cstate::CStateId::C6AE), 0.0);
    EXPECT_GT(res.shareOf(cstate::CStateId::C1), 0.0);
}

TEST(CoreSim, AwDrawsLessPowerThanLegacy)
{
    CoreHarness legacy(ServerConfig::baseline());
    CoreHarness agile(ServerConfig::awBaseline());
    legacy.core.start();
    agile.core.start();
    legacy.simr.run(fromSec(0.5));
    agile.simr.run(fromSec(0.5));
    EXPECT_LT(agile.core.averagePower(),
              legacy.core.averagePower());
}

TEST(CoreSim, ResetStatsClearsWindow)
{
    CoreHarness h(ServerConfig::baseline());
    h.core.start();
    h.simr.run(fromSec(0.2));
    h.core.resetStats();
    EXPECT_EQ(h.core.requestsCompleted(), 0u);
    h.simr.run(fromSec(0.4));
    EXPECT_GT(h.core.requestsCompleted(), 0u);
    EXPECT_NEAR(h.core.residency().totalShare(), 1.0, 1e-6);
}

TEST(CoreSim, MispredictionsHappenUnderIrregularLoad)
{
    // With C-state entry taking ~1 us and Poisson arrivals, some
    // arrivals land during entry.
    CoreHarness h(ServerConfig::baseline(), 50000.0);
    h.core.start();
    h.simr.run(fromSec(0.5));
    EXPECT_GT(h.core.mispredictedEntries(), 0u);
}

TEST(CoreSim, LatenciesIncludeWakePenalty)
{
    // At a very low rate every request finds the core idle; its
    // latency must be at least service + C-state exit.
    CoreHarness h(ServerConfig::baseline(), 100.0);
    h.core.start();
    h.simr.run(fromSec(2.0));
    ASSERT_FALSE(h.latencies.empty());
    double min_lat = 1e18;
    for (const double l : h.latencies)
        min_lat = std::min(min_lat, l);
    // Exit from any legacy state is >= ~1 us of software path.
    EXPECT_GT(min_lat, 1.0);
}

TEST(CoreSim, SnoopTrafficIncreasesIdlePower)
{
    ServerConfig quiet = ServerConfig::baseline();
    quiet.snoopRatePerSec = 0.0;
    ServerConfig noisy = ServerConfig::baseline();
    noisy.snoopRatePerSec = 200000.0;

    CoreHarness a(quiet, 100.0), b(noisy, 100.0);
    a.core.start();
    b.core.start();
    a.simr.run(fromSec(1.0));
    b.simr.run(fromSec(1.0));
    EXPECT_GT(b.core.averagePower(), a.core.averagePower());
}

TEST(CoreSim, PollModeWhenNoIdleStates)
{
    ServerConfig cfg = ServerConfig::baseline();
    cfg.cstates = cstate::CStateConfig(); // nothing enabled
    CoreHarness h(cfg, 1000.0);
    h.core.start();
    h.simr.run(fromSec(0.2));
    // Polling burns active power the whole time.
    EXPECT_NEAR(h.core.averagePower(), 4.0, 0.5);
    EXPECT_GT(h.core.requestsCompleted(), 0u);
}

/** One evaluation config and the factory that builds it. */
struct NamedConfig
{
    const char *name;
    ServerConfig (*make)();
};

/** Name the test case by its config, not by the factory's address. */
void
PrintTo(const NamedConfig &c, std::ostream *os)
{
    *os << c.name;
}

/** Property: across all evaluation configs, the core completes
 *  work and keeps residency accounting consistent. */
class CoreSimConfigs : public ::testing::TestWithParam<NamedConfig>
{
};

TEST_P(CoreSimConfigs, InvariantsHold)
{
    CoreHarness h(GetParam().make(), 20000.0);
    h.core.start();
    h.simr.run(fromSec(0.3));
    EXPECT_GT(h.core.requestsCompleted(), 0u);
    EXPECT_NEAR(h.core.residency().totalShare(), 1.0, 1e-6);
    EXPECT_GT(h.core.averagePower(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, CoreSimConfigs,
    ::testing::Values(
        NamedConfig{"baseline", &ServerConfig::baseline},
        NamedConfig{"awBaseline", &ServerConfig::awBaseline},
        NamedConfig{"ntBaseline", &ServerConfig::ntBaseline},
        NamedConfig{"ntNoC6", &ServerConfig::ntNoC6},
        NamedConfig{"ntNoC6NoC1e", &ServerConfig::ntNoC6NoC1e},
        NamedConfig{"ntAwNoC6NoC1e", &ServerConfig::ntAwNoC6NoC1e},
        NamedConfig{"tNoC6", &ServerConfig::tNoC6},
        NamedConfig{"tNoC6NoC1e", &ServerConfig::tNoC6NoC1e},
        NamedConfig{"tAwNoC6NoC1e", &ServerConfig::tAwNoC6NoC1e},
        NamedConfig{"legacyC1C6", &ServerConfig::legacyC1C6},
        NamedConfig{"legacyC1Only", &ServerConfig::legacyC1Only},
        NamedConfig{"awC6aOnly", &ServerConfig::awC6aOnly}));

} // namespace
