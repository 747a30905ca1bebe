/**
 * @file
 * Unit tests for the idle predictor and governor.
 */

#include <gtest/gtest.h>

#include "cstate/governor.hh"

namespace {

using namespace aw::cstate;
using namespace aw::sim;

TEST(Predictor, UnseededPredictsZero)
{
    IdlePredictor p;
    EXPECT_FALSE(p.seeded());
    EXPECT_EQ(p.predict(), Tick(0));
}

TEST(Predictor, FirstObservationSeedsEwma)
{
    IdlePredictor p;
    p.observe(fromUs(100.0));
    EXPECT_TRUE(p.seeded());
    EXPECT_EQ(p.predict(), fromUs(100.0));
}

TEST(Predictor, TakesMinOfEwmaAndLast)
{
    IdlePredictor p(0.25);
    // Long history then a short interval: prediction follows the
    // short one (conservatism against irregular streams).
    for (int i = 0; i < 20; ++i)
        p.observe(fromUs(1000.0));
    p.observe(fromUs(10.0));
    EXPECT_LE(p.predict(), fromUs(10.0));
}

TEST(Predictor, EwmaCapsAfterOneLongOutlier)
{
    IdlePredictor p(0.25);
    for (int i = 0; i < 20; ++i)
        p.observe(fromUs(10.0));
    p.observe(fromUs(10000.0));
    // Last is long but the EWMA still remembers short intervals.
    EXPECT_LT(p.predict(), fromUs(3000.0));
}

TEST(Predictor, ResetClears)
{
    IdlePredictor p;
    p.observe(fromUs(50.0));
    p.reset();
    EXPECT_FALSE(p.seeded());
    EXPECT_EQ(p.predict(), Tick(0));
}

TEST(Predictor, ResetDiscardsPreResetObservations)
{
    // Regression: reset() used to leave the old samples in the
    // window. A post-reset predictor must behave exactly like a
    // fresh one under the same observations -- no pre-reset history
    // may leak into any prediction.
    IdlePredictor stale;
    for (int i = 0; i < 20; ++i)
        stale.observe(fromMs(10.0)); // long pre-reset history
    stale.reset();

    IdlePredictor fresh;
    for (int i = 0; i < 12; ++i) {
        const Tick obs = fromUs(30.0 * (1 + i % 3));
        stale.observe(obs);
        fresh.observe(obs);
        EXPECT_EQ(stale.predict(), fresh.predict()) << "after "
                                                    << i + 1
                                                    << " samples";
    }
}

TEST(Governor, PicksDeepestAffordableState)
{
    const MenuGovernor gov(CStateConfig::legacyBaseline());
    // Predicted 1 us: only C1's 2 us target is above; pick C1
    // (the shallowest) as the fallback.
    EXPECT_EQ(gov.selectFor(fromUs(1.0)), CStateId::C1);
    // 5 us: C1 affordable, C1E (20 us) not.
    EXPECT_EQ(gov.selectFor(fromUs(5.0)), CStateId::C1);
    // 50 us: C1E affordable, C6 (600 us) not.
    EXPECT_EQ(gov.selectFor(fromUs(50.0)), CStateId::C1E);
    // 1 ms: C6.
    EXPECT_EQ(gov.selectFor(fromMs(1.0)), CStateId::C6);
}

TEST(Governor, AwConfigMapsLikeLegacy)
{
    const MenuGovernor gov(CStateConfig::aw());
    EXPECT_EQ(gov.selectFor(fromUs(5.0)), CStateId::C6A);
    EXPECT_EQ(gov.selectFor(fromUs(50.0)), CStateId::C6AE);
    EXPECT_EQ(gov.selectFor(fromMs(1.0)), CStateId::C6);
}

TEST(Governor, RespectsDisabledStates)
{
    const MenuGovernor gov(CStateConfig::legacyNoC6());
    EXPECT_EQ(gov.selectFor(fromMs(10.0)), CStateId::C1E);

    const MenuGovernor c1only(CStateConfig::legacyNoC6NoC1E());
    EXPECT_EQ(c1only.selectFor(fromMs(10.0)), CStateId::C1);
}

TEST(Governor, NoIdleStatesSelectsC0)
{
    const MenuGovernor gov{CStateConfig()};
    EXPECT_EQ(gov.selectFor(fromMs(10.0)), CStateId::C0);
}

TEST(Governor, SelectUsesPredictor)
{
    MenuGovernor gov(CStateConfig::legacyBaseline());
    // Unseeded: prediction 0 -> shallowest.
    EXPECT_EQ(gov.select(0), CStateId::C1);
    for (int i = 0; i < 30; ++i)
        gov.observeIdle(fromMs(2.0));
    EXPECT_EQ(gov.select(0), CStateId::C6);
}

TEST(Governor, IrregularTrafficAvoidsDeepStates)
{
    // The Sec 1 story: irregular arrivals keep the predictor
    // conservative, so cores rarely pick C6.
    MenuGovernor gov(CStateConfig::legacyBaseline());
    for (int i = 0; i < 10; ++i) {
        gov.observeIdle(fromMs(2.0));
        gov.observeIdle(fromUs(30.0));
    }
    EXPECT_NE(gov.select(0), CStateId::C6);
}

/** Property: the selected state's target residency never exceeds
 *  the prediction unless it is the shallowest fallback. */
class GovernorSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(GovernorSweep, TargetResidencyRespected)
{
    const Tick predicted = fromUs(GetParam());
    const MenuGovernor gov(CStateConfig::legacyBaseline());
    const CStateId chosen = gov.selectFor(predicted);
    if (chosen != gov.config().shallowestEnabled()) {
        EXPECT_LE(descriptor(chosen).targetResidency, predicted);
    }
    // And no deeper enabled state would also fit.
    for (const auto id : gov.config().enabledStates()) {
        if (descriptor(id).depth > descriptor(chosen).depth) {
            EXPECT_GT(descriptor(id).targetResidency, predicted);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PredictionSweep, GovernorSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 10.0, 19.0,
                                           20.0, 100.0, 599.0, 600.0,
                                           5000.0));

} // namespace
