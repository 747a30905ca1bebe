/**
 * @file
 * Cross-cutting property tests: system invariants that must hold
 * across randomized inputs and the whole configuration space.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/power_model.hh"
#include "cstate/governor.hh"
#include "server/server_sim.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::sim;
using cstate::CStateId;

// ---------------------------------------------------------------
// Event queue: randomized stress against a reference model.
// ---------------------------------------------------------------

TEST(PropertyEventQueue, RandomScheduleCancelMatchesReference)
{
    Rng rng(2718);
    EventQueue q;
    // Reference: multimap time -> serial, minus cancelled ids.
    std::multimap<Tick, EventId> reference;
    std::map<EventId, Tick> live;
    std::vector<std::pair<Tick, EventId>> fired;

    for (int op = 0; op < 5000; ++op) {
        const double dice = rng.uniform();
        if (dice < 0.55) {
            const Tick when = rng.uniformInt(0, 100000);
            const EventId id = q.schedule(when, [] {});
            reference.emplace(when, id);
            live.emplace(id, when);
        } else if (dice < 0.75 && !live.empty()) {
            // Cancel a random live event.
            auto it = live.begin();
            std::advance(it,
                         rng.uniformInt(0, live.size() - 1));
            q.cancel(it->first);
            auto range = reference.equal_range(it->second);
            for (auto r = range.first; r != range.second; ++r) {
                if (r->second == it->first) {
                    reference.erase(r);
                    break;
                }
            }
            live.erase(it);
        } else if (!q.empty()) {
            const auto popped = q.pop();
            fired.emplace_back(popped.when, popped.id);
            auto range = reference.equal_range(popped.when);
            bool found = false;
            for (auto r = range.first; r != range.second; ++r) {
                if (r->second == popped.id) {
                    reference.erase(r);
                    found = true;
                    break;
                }
            }
            ASSERT_TRUE(found) << "popped unknown event";
            live.erase(popped.id);
        }
    }
    // Drain: every remaining live event must be accounted for in
    // the reference model, in time order.
    Tick prev_drained = 0;
    while (!q.empty()) {
        const auto popped = q.pop();
        EXPECT_GE(popped.when, prev_drained);
        prev_drained = popped.when;
        auto range = reference.equal_range(popped.when);
        bool found = false;
        for (auto r = range.first; r != range.second; ++r) {
            if (r->second == popped.id) {
                reference.erase(r);
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found);
    }
    EXPECT_TRUE(reference.empty());
}

TEST(PropertyEventQueue, DrainIsTimeOrdered)
{
    Rng rng(31415);
    EventQueue q;
    for (int i = 0; i < 2000; ++i)
        q.schedule(rng.uniformInt(0, 1000000), [] {});
    Tick prev = 0;
    while (!q.empty()) {
        const auto popped = q.pop();
        EXPECT_GE(popped.when, prev);
        prev = popped.when;
    }
}

// ---------------------------------------------------------------
// Governor: fuzzing never selects a disabled state.
// ---------------------------------------------------------------

TEST(PropertyGovernor, FuzzOnlySelectsEnabledStates)
{
    Rng rng(99);
    const cstate::CStateConfig configs[] = {
        cstate::CStateConfig::legacyBaseline(),
        cstate::CStateConfig::legacyNoC6(),
        cstate::CStateConfig::legacyNoC6NoC1E(),
        cstate::CStateConfig::aw(),
        cstate::CStateConfig::awNoC6(),
        cstate::CStateConfig::legacyC1C6(),
    };
    for (const auto &config : configs) {
        cstate::MenuGovernor gov(config);
        for (int i = 0; i < 2000; ++i) {
            gov.observeIdle(
                fromUs(rng.boundedPareto(0.1, 100000.0, 1.1)));
            const CStateId chosen = gov.select(0);
            EXPECT_TRUE(config.enabled(chosen) ||
                        chosen == CStateId::C0)
                << cstate::name(chosen) << " not in "
                << config.describe();
        }
    }
}

TEST(PropertyGovernor, DeeperPredictionsNeverPickShallower)
{
    // Monotonicity: a longer predicted idle can only select an
    // equal-or-deeper state.
    const cstate::MenuGovernor gov(
        cstate::CStateConfig::legacyBaseline());
    int prev_depth = -1;
    for (double us = 0.5; us < 100000.0; us *= 1.7) {
        const CStateId chosen = gov.selectFor(fromUs(us));
        const int depth = cstate::descriptor(chosen).depth;
        EXPECT_GE(depth, prev_depth) << "at " << us << "us";
        prev_depth = depth;
    }
}

// ---------------------------------------------------------------
// Energy conservation: with Turbo off and unit power scale, the
// meter must equal the residency-weighted sum exactly.
// ---------------------------------------------------------------

class EnergyIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{
};

TEST_P(EnergyIdentity, MeterEqualsResidencyWeightedSum)
{
    const auto [cfg_name, qps] = GetParam();
    server::ServerConfig cfg =
        cfg_name == "nt_baseline"
            ? server::ServerConfig::ntBaseline()
            : (cfg_name == "nt_aw"
                   ? server::ServerConfig::ntAwNoC6NoC1e()
                   : server::ServerConfig::legacyC1C6());
    server::ServerSim srv(
        cfg, workload::WorkloadProfile::memcached(), qps);
    const auto r = srv.run(fromSec(0.4), fromMs(40.0));

    core::AwCoreModel aw_model;
    const analysis::CStatePowerModel model(
        server::StatePowers::fromModels(aw_model.ppa()));
    const double estimated = model.baselineAvgPower(r.residency);
    EXPECT_NEAR(estimated, r.avgCorePower,
                r.avgCorePower * 0.001)
        << cfg_name << " @ " << qps;
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsAndRates, EnergyIdentity,
    ::testing::Combine(::testing::Values(std::string("nt_baseline"),
                                         std::string("nt_aw"),
                                         std::string("c1c6")),
                       ::testing::Values(20e3, 100e3, 300e3)));

// ---------------------------------------------------------------
// Monotonicity of power in load.
// ---------------------------------------------------------------

TEST(PropertyServer, PowerMonotonicInLoad)
{
    const auto profile = workload::WorkloadProfile::memcached();
    double prev = 0.0;
    for (const double qps : {25e3, 100e3, 250e3, 450e3}) {
        server::ServerSim srv(server::ServerConfig::ntBaseline(),
                              profile, qps);
        const auto r = srv.run(fromSec(0.3), fromMs(30.0));
        EXPECT_GT(r.avgCorePower, prev) << "qps=" << qps;
        prev = r.avgCorePower;
    }
}

TEST(PropertyServer, AwNeverIncreasesPower)
{
    // Across workloads and rates, replacing C1-family with
    // C6A-family must never increase average power.
    struct Case
    {
        workload::WorkloadProfile profile;
        double qps;
    };
    const Case cases[] = {
        {workload::WorkloadProfile::memcached(), 50e3},
        {workload::WorkloadProfile::memcached(), 400e3},
        {workload::WorkloadProfile::mysql(), 2700.0},
        {workload::WorkloadProfile::kafka(), 8e3},
    };
    for (const auto &c : cases) {
        server::ServerSim legacy(server::ServerConfig::ntBaseline(),
                                 c.profile, c.qps);
        server::ServerConfig aw_cfg =
            server::ServerConfig::awBaseline();
        aw_cfg.turboEnabled = false;
        server::ServerSim agile(aw_cfg, c.profile, c.qps);
        const auto rl = legacy.run(fromSec(0.4), fromMs(40.0));
        const auto ra = agile.run(fromSec(0.4), fromMs(40.0));
        EXPECT_LT(ra.avgCorePower, rl.avgCorePower)
            << c.profile.name() << " @ " << c.qps;
    }
}

// ---------------------------------------------------------------
// Latency sanity: p99 >= mean >= min service time.
// ---------------------------------------------------------------

TEST(PropertyServer, LatencyOrderingHolds)
{
    for (const double qps : {50e3, 200e3, 450e3}) {
        server::ServerSim srv(
            server::ServerConfig::baseline(),
            workload::WorkloadProfile::memcached(), qps);
        const auto r = srv.run(fromSec(0.3), fromMs(30.0));
        EXPECT_GE(r.p99LatencyUs, r.avgLatencyUs);
        EXPECT_GT(r.avgLatencyUs, 0.0);
        EXPECT_GE(r.avgLatencyE2eUs, r.avgLatencyUs);
    }
}

// ---------------------------------------------------------------
// Residency remap (Eq. 3 path) properties under fuzzing.
// ---------------------------------------------------------------

TEST(PropertyPowerModel, RemapFuzzPreservesInvariants)
{
    Rng rng(4242);
    core::AwCoreModel aw_model;
    const analysis::CStatePowerModel model(
        server::StatePowers::fromModels(aw_model.ppa()));
    for (int i = 0; i < 500; ++i) {
        // Random residency vector over C0/C1/C1E/C6.
        double c0 = rng.uniform(), c1 = rng.uniform();
        double c1e = rng.uniform(), c6 = rng.uniform();
        const double sum = c0 + c1 + c1e + c6;
        cstate::ResidencySnapshot r;
        r.share[cstate::index(CStateId::C0)] = c0 / sum;
        r.share[cstate::index(CStateId::C1)] = c1 / sum;
        r.share[cstate::index(CStateId::C1E)] = c1e / sum;
        r.share[cstate::index(CStateId::C6)] = c6 / sum;
        r.window = fromSec(1.0);

        const double scal = rng.uniform();
        const double trans = rng.uniform(0.0, 1e6);
        const auto m = model.remapForAw(r, scal, trans);

        // Shares stay a distribution.
        EXPECT_NEAR(m.totalShare(), 1.0, 1e-9);
        for (const double s : m.share)
            EXPECT_GE(s, -1e-12);
        // C1 family fully vacated.
        EXPECT_DOUBLE_EQ(m.shareOf(CStateId::C1), 0.0);
        EXPECT_DOUBLE_EQ(m.shareOf(CStateId::C1E), 0.0);
        // C0 never shrinks.
        EXPECT_GE(m.shareOf(CStateId::C0),
                  r.shareOf(CStateId::C0) - 1e-12);
        // Power accounting bound: the remap replaces idle powers
        // by strictly cheaper ones and moves `steal` time into C0;
        // AW power can only exceed baseline by at most the stolen
        // share charged at active power.
        const double steal =
            m.shareOf(CStateId::C0) - r.shareOf(CStateId::C0);
        EXPECT_LE(model.awAvgPower(m),
                  model.baselineAvgPower(r) +
                      steal * model.powers().activeP1 + 1e-9);
        // And with no transition overhead and no scalability
        // penalty, it must be strictly cheaper.
        const auto pure = model.remapForAw(r, 0.0, 0.0);
        EXPECT_LE(model.awAvgPower(pure),
                  model.baselineAvgPower(r) + 1e-12);
    }
}

// ---------------------------------------------------------------
// Interval arithmetic properties.
// ---------------------------------------------------------------

TEST(PropertyInterval, SumsAndProductsStayValid)
{
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const double a = rng.uniform(0.0, 10.0);
        const double b = a + rng.uniform(0.0, 5.0);
        const double c = rng.uniform(0.0, 10.0);
        const double d = c + rng.uniform(0.0, 5.0);
        const power::Interval x(a, b), y(c, d);
        EXPECT_TRUE((x + y).valid());
        EXPECT_TRUE((x * y).valid());
        EXPECT_TRUE((x * rng.uniform(-3.0, 3.0)).valid());
        EXPECT_TRUE((x + y).contains(x.mid() + y.mid()));
    }
}

} // namespace
