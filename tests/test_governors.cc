/**
 * @file
 * Tests for the pluggable idle-governance API: the registry (spec
 * parse, round-trip, fatal diagnostics), per-core clone
 * independence, and the behavior of each built-in policy (teo,
 * ladder, static, oracle).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cluster/fleet.hh"
#include "cstate/governors.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::cstate;
using namespace aw::sim;

// --------------------------------------------------------- registry

TEST(GovernorRegistry, AdvertisesTheBuiltInKinds)
{
    const auto &kinds = governorKinds();
    for (const char *kind :
         {"menu", "teo", "ladder", "static", "oracle"}) {
        EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind),
                  kinds.end())
            << kind;
    }
}

TEST(GovernorRegistry, SpecsRoundTripThroughMake)
{
    const auto config = CStateConfig::legacyBaseline();
    for (const char *spec :
         {"menu", "teo", "ladder", "static:C6", "static:deepest",
          "static:shallowest", "oracle"}) {
        const auto policy = makeGovernor(spec, config);
        ASSERT_NE(policy, nullptr) << spec;
        EXPECT_EQ(policy->spec(), spec);
        // clone() preserves the spec and the configuration.
        const auto copy = policy->clone();
        EXPECT_EQ(copy->spec(), policy->spec());
        EXPECT_EQ(copy->config().describe(),
                  policy->config().describe());
    }
}

TEST(GovernorRegistry, ParseSplitsKindAndArg)
{
    const auto plain = parseGovernorSpec("menu");
    EXPECT_EQ(plain.kind, "menu");
    EXPECT_TRUE(plain.arg.empty());

    const auto with_arg = parseGovernorSpec("static:C6A");
    EXPECT_EQ(with_arg.kind, "static");
    EXPECT_EQ(with_arg.arg, "C6A");
}

TEST(GovernorRegistryDeathTest, UnknownNamesAreFatal)
{
    const auto config = CStateConfig::legacyBaseline();
    EXPECT_EXIT(makeGovernor("no_such_policy", config),
                testing::ExitedWithCode(1),
                "unknown governor 'no_such_policy'.*menu.*oracle");
    EXPECT_EXIT(makeGovernor("static:NoSuchState", config),
                testing::ExitedWithCode(1), "unknown C-state");
    EXPECT_EXIT(makeGovernor("static", config),
                testing::ExitedWithCode(1), "needs a state");
    // Argless kinds reject a stray argument rather than silently
    // running unparameterized under a mislabeled spec.
    EXPECT_EXIT(makeGovernor("menu:bogus", config),
                testing::ExitedWithCode(1), "takes no argument");
    EXPECT_EXIT(makeGovernor("oracle:x", config),
                testing::ExitedWithCode(1), "takes no argument");
    // Naming a state the configuration disables is a config error.
    EXPECT_EXIT(makeGovernor("static:C6A", config),
                testing::ExitedWithCode(1), "requires C6A enabled");
}

// ------------------------------------------------ clone independence

TEST(GovernorClone, ObservationsDoNotLeakAcrossClones)
{
    // One prototype, two per-core instances: core A's long idle
    // history must not change core B's predictions.
    const auto proto =
        makeGovernor("menu", CStateConfig::legacyBaseline());
    const auto a = proto->clone();
    const auto b = proto->clone();

    for (int i = 0; i < 30; ++i)
        a->observeIdle(fromMs(5.0));
    EXPECT_EQ(a->select(0), CStateId::C6);
    // B saw nothing: still the unseeded shallow choice.
    EXPECT_EQ(b->select(0), CStateId::C1);

    // Same property for the stateful teo and ladder policies.
    for (const char *spec : {"teo", "ladder"}) {
        const auto p =
            makeGovernor(spec, CStateConfig::legacyBaseline());
        const auto trained = p->clone();
        const auto naive = p->clone();
        for (int i = 0; i < 50; ++i)
            trained->observeIdle(fromMs(5.0));
        EXPECT_EQ(trained->select(0), CStateId::C6) << spec;
        EXPECT_EQ(naive->select(0), CStateId::C1) << spec;
    }
}

// ------------------------------------------------------ teo behavior

TEST(TeoGovernor, MajorityOfRecentHistoryPicksTheState)
{
    TeoGovernor teo(CStateConfig::legacyBaseline());
    // Consistently long idles: deep state.
    for (int i = 0; i < 20; ++i)
        teo.observeIdle(fromMs(2.0));
    EXPECT_EQ(teo.select(0), CStateId::C6);

    // A burst of short intercepts flips it shallow again.
    for (int i = 0; i < 20; ++i)
        teo.observeIdle(fromUs(5.0));
    EXPECT_EQ(teo.select(0), CStateId::C1);
}

TEST(TeoGovernor, MixedHistoryVetoesDeepEntries)
{
    TeoGovernor teo(CStateConfig::legacyBaseline());
    // 50/50 long/short: the shallow intercepts deny C6.
    for (int i = 0; i < 20; ++i) {
        teo.observeIdle(fromMs(2.0));
        teo.observeIdle(fromUs(5.0));
    }
    EXPECT_NE(teo.select(0), CStateId::C6);
    teo.reset();
    EXPECT_EQ(teo.select(0), CStateId::C1); // history gone
}

// --------------------------------------------------- ladder behavior

TEST(LadderGovernor, ClimbsOnHitsFallsOnMiss)
{
    LadderGovernor ladder(CStateConfig::legacyBaseline());
    EXPECT_EQ(ladder.select(0), CStateId::C1); // bottom rung

    // kPromoteHits covering idles climb exactly one rung.
    for (unsigned i = 0; i < LadderGovernor::kPromoteHits; ++i)
        ladder.observeIdle(fromMs(10.0));
    EXPECT_EQ(ladder.select(0), CStateId::C1E);

    for (unsigned i = 0; i < LadderGovernor::kPromoteHits; ++i)
        ladder.observeIdle(fromMs(10.0));
    EXPECT_EQ(ladder.select(0), CStateId::C6);

    // One idle below C6's target residency demotes immediately.
    ladder.observeIdle(fromUs(10.0));
    EXPECT_EQ(ladder.select(0), CStateId::C1E);

    ladder.reset();
    EXPECT_EQ(ladder.select(0), CStateId::C1);
}

// --------------------------------------------------- static behavior

TEST(StaticGovernor, AlwaysTheNamedState)
{
    StaticGovernor c6(CStateConfig::legacyBaseline(), "C6");
    EXPECT_EQ(c6.select(0), CStateId::C6);
    for (int i = 0; i < 10; ++i)
        c6.observeIdle(fromUs(1.0)); // pathological history
    EXPECT_EQ(c6.select(0), CStateId::C6);
    // Promotion ticks never move it either.
    EXPECT_EQ(c6.reselect(0, fromMs(100.0)), CStateId::C6);

    StaticGovernor deep(CStateConfig::aw(), "deepest");
    EXPECT_EQ(deep.select(0), CStateId::C6);
    EXPECT_EQ(deep.spec(), "static:deepest");
    StaticGovernor shallow(CStateConfig::aw(), "shallowest");
    EXPECT_EQ(shallow.select(0), CStateId::C6A);
}

// --------------------------------------------------- oracle behavior

TEST(OracleGovernor, SelectsByTrueIdleLength)
{
    OracleGovernor oracle(CStateConfig::legacyBaseline());
    EXPECT_TRUE(oracle.needsOracle());

    sim::Tick true_idle = 0;
    oracle.setOracle([&true_idle](sim::Tick) { return true_idle; });

    // Without a cost model: deepest state whose target residency
    // the true length covers.
    true_idle = fromUs(5.0);
    EXPECT_EQ(oracle.select(0), CStateId::C1);
    true_idle = fromUs(50.0);
    EXPECT_EQ(oracle.select(0), CStateId::C1E);
    true_idle = fromMs(2.0);
    EXPECT_EQ(oracle.select(0), CStateId::C6);
}

TEST(OracleGovernor, CostModelPicksTheCheapestState)
{
    OracleGovernor oracle(CStateConfig::legacyBaseline());
    oracle.setOracle([](sim::Tick) { return fromUs(100.0); });
    // A cost model that makes polling and C1E prohibitively
    // expensive: the oracle must skip C1E even though the residency
    // rule would pick it at 100 us.
    oracle.setCostModel([](CStateId s, sim::Tick) {
        if (s == CStateId::C0 || s == CStateId::C1E)
            return 1e9;
        return 1.0 + descriptor(s).depth;
    });
    EXPECT_EQ(oracle.select(0), CStateId::C1);

    // And C0 -- not idling at all -- is a real candidate: when the
    // model says every transition costs more than just polling
    // through the interval, the oracle polls.
    OracleGovernor poller(CStateConfig::legacyBaseline());
    poller.setOracle([](sim::Tick) { return fromUs(1.0); });
    poller.setCostModel([](CStateId s, sim::Tick) {
        return s == CStateId::C0 ? 0.5 : 2.0;
    });
    EXPECT_EQ(poller.select(0), CStateId::C0);
}

TEST(OracleGovernor, PromotionTicksNeverMoveOffTheChoice)
{
    // The select()-time pick was optimal for the whole known
    // interval: reselect() must return it unchanged (a promotion
    // tick deepening to C6 would pay exactly the entry flow the
    // oracle avoided), and canPromote() lets the host skip the
    // ticks entirely. Static policies are pinned the same way;
    // predictive ones keep promoting.
    OracleGovernor oracle(CStateConfig::legacyBaseline());
    oracle.setOracle([](sim::Tick) { return fromUs(50.0); });
    const CStateId chosen = oracle.select(0);
    EXPECT_EQ(oracle.reselect(0, fromMs(10.0)), chosen);
    EXPECT_FALSE(oracle.canPromote());

    const auto config = CStateConfig::legacyBaseline();
    EXPECT_FALSE(StaticGovernor(config, "C1").canPromote());
    EXPECT_TRUE(MenuGovernor(config).canPromote());
    EXPECT_TRUE(TeoGovernor(config).canPromote());
    EXPECT_TRUE(LadderGovernor(config).canPromote());
}

TEST(OracleGovernorDeathTest, SelectWithoutForeknowledgePanics)
{
    OracleGovernor oracle(CStateConfig::legacyBaseline());
    EXPECT_DEATH(oracle.select(0), "no foreknowledge");
}

TEST(OracleGovernorDeathTest, FleetModeIsRejectedUpFront)
{
    cluster::FleetConfig fc;
    fc.servers = 2;
    fc.server = server::ServerConfig::legacyC1C6();
    fc.server.governor = "oracle";
    EXPECT_EXIT(
        cluster::FleetSim(fc,
                          workload::WorkloadProfile::memcached(),
                          50e3),
        testing::ExitedWithCode(1), "single-server only");
}

TEST(OracleGovernorDeathTest, CentralDispatchIsRejected)
{
    // Packing (and any centrally dispatched stream) has no per-core
    // foreknowledge to offer: building the server must die with a
    // clear diagnostic.
    server::ServerConfig cfg = server::ServerConfig::ntBaseline();
    cfg.governor = "oracle";
    cfg.dispatch = server::DispatchPolicy::Packing;
    EXPECT_EXIT(
        server::ServerSim(cfg,
                          workload::WorkloadProfile::memcached(),
                          50e3),
        testing::ExitedWithCode(1), "foreknowledge");
}

// ------------------------------------------- end-to-end integration

TEST(GovernorIntegration, ServerRunsWithEveryBuiltInPolicy)
{
    const auto profile = workload::WorkloadProfile::memcached();
    for (const char *spec :
         {"menu", "teo", "ladder", "static:C6", "oracle"}) {
        server::ServerConfig cfg = server::ServerConfig::ntBaseline();
        cfg.governor = spec;
        server::ServerSim srv(cfg, profile, 50e3);
        const auto r = srv.run(fromMs(50.0), fromMs(5.0));
        EXPECT_GT(r.requests, 1000u) << spec;
        EXPECT_GT(r.packagePower, 0.0) << spec;
    }
}

TEST(GovernorIntegration, StaticDeepestForcesDeepResidency)
{
    const auto profile = workload::WorkloadProfile::memcached();
    server::ServerConfig cfg = server::ServerConfig::legacyC1C6();
    cfg.governor = "static:deepest";
    server::ServerSim srv(cfg, profile, 50e3);
    const auto r = srv.run(fromMs(100.0), fromMs(10.0));
    EXPECT_GT(r.residency.shareOf(CStateId::C6), 0.5);

    // ... where menu (the Sec 1 story) nearly never reaches C6.
    server::ServerConfig menu_cfg = server::ServerConfig::legacyC1C6();
    server::ServerSim menu_srv(menu_cfg, profile, 50e3);
    const auto m = menu_srv.run(fromMs(100.0), fromMs(10.0));
    EXPECT_LT(m.residency.shareOf(CStateId::C6), 0.05);
}

} // namespace
