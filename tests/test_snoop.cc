/**
 * @file
 * Unit tests for the snoop traffic generator.
 */

#include <gtest/gtest.h>

#include "uarch/snoop.hh"

namespace {

using namespace aw::uarch;
using namespace aw::sim;

TEST(SnoopTraffic, DisabledNeverFires)
{
    SnoopTraffic snoops(0.0, 0.3);
    EXPECT_FALSE(snoops.enabled());
    EXPECT_EQ(snoops.nextArrival(12345), kMaxTick);
    // No probes, so no hits -- and no engine state is carried.
    EXPECT_FALSE(snoops.drawHit());
    EXPECT_EQ(snoops.engineBytes(), 0u);
    EXPECT_EQ(SnoopTraffic(1000.0, 0.3).engineBytes(), sizeof(Rng));
}

TEST(SnoopTraffic, MeanGapMatchesRate)
{
    SnoopTraffic snoops(1000.0, 0.3, 7);
    double sum_sec = 0.0;
    Tick now = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const Tick next = snoops.nextArrival(now);
        sum_sec += toSec(next - now);
        now = next;
    }
    EXPECT_NEAR(sum_sec / n, 1e-3, 1e-4);
}

TEST(SnoopTraffic, ArrivalsAdvance)
{
    SnoopTraffic snoops(100.0, 0.5, 3);
    const Tick t1 = snoops.nextArrival(1000);
    EXPECT_GT(t1, 1000u);
}

TEST(SnoopTraffic, HitFractionRespected)
{
    SnoopTraffic snoops(100.0, 0.25, 11);
    int hits = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        hits += snoops.drawHit() ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(SnoopTraffic, AllOrNothingHitFractions)
{
    SnoopTraffic never(100.0, 0.0, 1);
    SnoopTraffic always(100.0, 1.0, 1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(never.drawHit());
        EXPECT_TRUE(always.drawHit());
    }
}

TEST(SnoopTrafficDeathTest, ValidatesArguments)
{
    EXPECT_DEATH(SnoopTraffic(-1.0, 0.3), "rate");
    EXPECT_DEATH(SnoopTraffic(10.0, 1.5), "fraction");
}

} // namespace
