/**
 * @file
 * Tests for the legacy C-state hardware flows of Fig 3 as the
 * TransitionEngine times them: C1 clock gating (Fig 3a), the C6
 * entry flush/save/gate sequence (Fig 3b) and the C6 exit
 * wake/restore sequence (Fig 3c), at the paper's reference point
 * (800 MHz, 50% dirty caches).
 */

#include <gtest/gtest.h>

#include "core/aw_core.hh"
#include "cstate/transition.hh"
#include "uarch/cache.hh"
#include "uarch/context.hh"

namespace {

using namespace aw;
using namespace aw::cstate;
using namespace aw::sim;

class FlowTest : public ::testing::Test
{
  protected:
    FlowTest()
        : caches(uarch::PrivateCaches::skylakeServer()),
          engine(caches, context, model.controller().awLatencies())
    {
        caches.setDirtyFraction(0.5);
    }

    core::AwCoreModel model;
    uarch::PrivateCaches caches;
    uarch::CoreContext context;
    TransitionEngine engine;
    const Frequency freq = Frequency::mhz(800.0);
};

TEST_F(FlowTest, C1EntryTimingMatchesEngine)
{
    // Fig 3a: the clock gate takes two core cycles.
    const auto hw = engine.hardwareLatency(CStateId::C1, freq);
    EXPECT_EQ(hw.entry, freq.cycles(2));
    EXPECT_LT(hw.entry, fromNs(10.0));
}

TEST_F(FlowTest, C1RoundTrip)
{
    // Ungating mirrors gating: two cycles back, four in all.
    const auto hw = engine.hardwareLatency(CStateId::C1, freq);
    EXPECT_EQ(hw.exit, freq.cycles(2));
    EXPECT_EQ(hw.total(), freq.cycles(4));
}

TEST_F(FlowTest, C6EntryPhaseSequenceAndTiming)
{
    // Fig 3b: flush the caches, save the context, then the
    // power-gate controller; each step takes time and together they
    // are the whole hardware entry, ~87 us at the reference point.
    const auto b = engine.c6EntryBreakdown(freq);
    EXPECT_GT(b.flush, 0);
    EXPECT_GT(b.contextSave, 0);
    EXPECT_EQ(b.controller, TransitionEngine::kC6PgControllerOverhead);
    EXPECT_GT(b.flush, b.contextSave);

    const auto hw = engine.hardwareLatency(CStateId::C6, freq);
    EXPECT_EQ(hw.entry, b.total());
    EXPECT_NEAR(toUs(hw.entry), 87.0, 1.0);
}

TEST_F(FlowTest, C6ExitTimingMatchesBreakdown)
{
    // Fig 3c: wake, restore, microcode re-init and resume tail are
    // the whole hardware exit, ~30 us.
    const auto b = engine.c6ExitBreakdown(freq);
    const auto hw = engine.hardwareLatency(CStateId::C6, freq);
    EXPECT_EQ(hw.exit, b.total());
    EXPECT_EQ(b.hwWake, TransitionEngine::kC6HwWake);
    EXPECT_EQ(b.resumeTail, TransitionEngine::kC6ResumeTail);
    EXPECT_NEAR(toUs(hw.exit), 30.0, 3.0);
}

TEST_F(FlowTest, C6RoundTripIsThreeOrdersSlowerThanC6a)
{
    // The C6 hardware flows alone, with no software path, take
    // >900x the C6A PMA round trip.
    const auto hw = engine.hardwareLatency(CStateId::C6, freq);
    const double legacy_ns = toNs(hw.total());
    const double aw_ns = toNs(model.controller().roundTripLatency());
    EXPECT_GT(legacy_ns / aw_ns, 900.0);
}

} // namespace
