/**
 * @file
 * Unit and integration tests for the state-transition analyzer:
 * per-pair accounting, lifetime histograms, the conservation
 * invariants (pair counts, lifetimes + tails == window) and the
 * governor observeIdle ground-truth cross-check over real
 * ServerSim runs.
 */

#include <gtest/gtest.h>

#include <bit>

#include "analysis/sampler.hh"
#include "analysis/transitions.hh"
#include "cstate/residency.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using namespace aw::analysis;
using cstate::CStateId;

// ------------------------------------------------------- unit tests

TEST(TransitionAnalyzer, PairAccountingAndTails)
{
    TransitionAnalyzer a;
    a.reset(0, CStateId::C0);

    a.enter(CStateId::C1, 100);  // C0 lived [0, 100)
    a.enter(CStateId::C0, 250);  // C1 lived [100, 250)
    a.finish(1000);              // C0 tail [250, 1000)

    EXPECT_EQ(a.pair(CStateId::C0, CStateId::C1).count, 1u);
    EXPECT_EQ(a.pair(CStateId::C0, CStateId::C1).totalLifetime,
              100u);
    EXPECT_EQ(a.pair(CStateId::C1, CStateId::C0).count, 1u);
    EXPECT_EQ(a.pair(CStateId::C1, CStateId::C0).totalLifetime,
              150u);
    EXPECT_EQ(a.pair(CStateId::C1, CStateId::C0).maxLifetime, 150u);
    EXPECT_EQ(a.pair(CStateId::C0, CStateId::C6).count, 0u);

    EXPECT_EQ(a.totalTransitions(), 2u);
    EXPECT_EQ(a.tail(CStateId::C0), 750u);
    EXPECT_EQ(a.tail(CStateId::C1), 0u);

    // Conservation: completed lifetimes + censored tails == window.
    EXPECT_EQ(a.totalLifetime(), 1000u);
    EXPECT_EQ(a.timeIn(CStateId::C0), 100u + 750u);
    EXPECT_EQ(a.timeIn(CStateId::C1), 150u);
}

TEST(TransitionAnalyzer, SelfEnterIsNotATransition)
{
    TransitionAnalyzer a;
    a.reset(0, CStateId::C0);
    a.enter(CStateId::C0, 100); // residency-style re-entry: merges
    EXPECT_EQ(a.totalTransitions(), 0u);
    EXPECT_EQ(a.current(), CStateId::C0);

    // The open lifetime kept running through the re-entry.
    a.enter(CStateId::C6A, 300);
    EXPECT_EQ(a.pair(CStateId::C0, CStateId::C6A).totalLifetime,
              300u);
}

TEST(TransitionAnalyzer, FinishIsIdempotent)
{
    TransitionAnalyzer a;
    a.reset(0, CStateId::C1);
    a.finish(500);
    a.finish(500);
    EXPECT_EQ(a.tail(CStateId::C1), 500u);
    EXPECT_EQ(a.totalLifetime(), 500u);
}

TEST(TransitionStats, HistogramBucketsAreBitWidth)
{
    TransitionStats s;
    s.observe(0); // bucket 0: zero-length
    s.observe(1); // bucket 1: [1, 2)
    s.observe(2); // bucket 2: [2, 4)
    s.observe(3);
    s.observe(4); // bucket 3: [4, 8)
    s.observe(1024); // bucket 11

    EXPECT_EQ(s.histogram[0], 1u);
    EXPECT_EQ(s.histogram[1], 1u);
    EXPECT_EQ(s.histogram[2], 2u);
    EXPECT_EQ(s.histogram[3], 1u);
    EXPECT_EQ(s.histogram[std::bit_width(1024u)], 1u);
    EXPECT_EQ(s.count, 6u);
    EXPECT_EQ(s.maxLifetime, 1024u);
    EXPECT_DOUBLE_EQ(s.meanLifetimeUs(),
                     sim::toUs(1034) / 6.0);
}

TEST(TransitionStats, ExtremeLifetimesClampToLastBucket)
{
    TransitionStats s;
    s.observe(sim::kMaxTick - 1);
    EXPECT_EQ(s.histogram[kLifetimeBuckets - 1], 1u);
}

TEST(TransitionAnalyzer, MergeFoldsPairsAndTails)
{
    TransitionAnalyzer a, b;
    a.reset(0, CStateId::C0);
    a.enter(CStateId::C1, 100);
    a.finish(300);

    b.reset(0, CStateId::C0);
    b.enter(CStateId::C1, 50);
    b.enter(CStateId::C0, 75);
    b.finish(300);

    TransitionAnalyzer sum;
    sum.merge(a);
    sum.merge(b);
    EXPECT_EQ(sum.pair(CStateId::C0, CStateId::C1).count, 2u);
    EXPECT_EQ(sum.pair(CStateId::C0, CStateId::C1).totalLifetime,
              150u);
    EXPECT_EQ(sum.totalTransitions(), 3u);
    EXPECT_EQ(sum.totalLifetime(), 600u);
}

TEST(TransitionAnalyzerDeathTest, EnterAfterFinishPanics)
{
    TransitionAnalyzer a;
    a.reset(0, CStateId::C0);
    a.finish(100);
    EXPECT_DEATH(a.enter(CStateId::C1, 200), "finish");
}

TEST(TransitionAnalyzerDeathTest, TimeBackwardsPanics)
{
    TransitionAnalyzer a;
    a.reset(100, CStateId::C0);
    EXPECT_DEATH(a.enter(CStateId::C1, 50), "backwards");
}

TEST(TransitionAnalyzer, MirrorsResidencyCounters)
{
    // Drive both accounting schemes with the same state stream and
    // compare timeIn exactly (the header's documented invariant).
    const CStateId stream[] = {CStateId::C1, CStateId::C6A,
                               CStateId::C0, CStateId::C1,
                               CStateId::C0};
    TransitionAnalyzer a;
    cstate::ResidencyCounters rc(0, CStateId::C0);
    a.reset(0, CStateId::C0);
    sim::Tick now = 0;
    sim::Tick step = 7;
    for (const CStateId s : stream) {
        now += step;
        step = step * 3 + 1; // irregular gaps
        a.enter(s, now);
        rc.recordEnter(s, now);
    }
    const sim::Tick end = now + 1000;
    a.finish(end);
    for (std::size_t i = 0; i < cstate::kNumCStates; ++i) {
        const auto id = static_cast<CStateId>(i);
        EXPECT_EQ(a.timeIn(id), rc.timeIn(id, end)) << i;
    }
    EXPECT_EQ(a.totalLifetime(), end);
}

// ----------------------------------------------- integration (sim)

TEST(TransitionIntegration, ConservationOverRealRun)
{
    auto cfg = server::ServerConfig::awBaseline();
    cfg.cores = 4;
    cfg.seed = 7;
    server::ServerSim srv(cfg, workload::WorkloadProfile::memcached(),
                          80e3);
    TimelineConfig tc;
    tc.intervalSeconds = 0.01;
    TimelineRecorder rec(tc, cfg.cores);
    srv.setObserver(&rec);
    const auto r = srv.run(sim::fromSec(0.2), sim::fromSec(0.02));

    const TimelineSeries &series = rec.series();

    // Per core: every tick of the measured window is attributed to
    // exactly one lifetime (completed or censored).
    for (unsigned c = 0; c < cfg.cores; ++c) {
        const TransitionAnalyzer &a = rec.coreTransitions(c);
        EXPECT_EQ(a.totalLifetime(), r.window) << "core " << c;

        std::uint64_t pair_counts = 0;
        for (std::size_t f = 0; f < cstate::kNumCStates; ++f)
            for (std::size_t t = 0; t < cstate::kNumCStates; ++t)
                pair_counts +=
                    a.pair(static_cast<CStateId>(f),
                           static_cast<CStateId>(t))
                        .count;
        EXPECT_EQ(pair_counts, a.totalTransitions()) << "core " << c;
    }

    // Folded across cores the analyzer must reproduce the run's
    // aggregate residency shares.
    ASSERT_GT(series.transitions.totalTransitions(), 0u);
    const double total_core_time =
        static_cast<double>(r.window) * cfg.cores;
    for (std::size_t i = 0; i < cstate::kNumCStates; ++i) {
        const auto id = static_cast<CStateId>(i);
        const double share =
            static_cast<double>(series.transitions.timeIn(id)) /
            total_core_time;
        EXPECT_NEAR(share, r.residency.share[i], 1e-9) << i;
    }

    // The paper's lifetime argument needs deep-state entries with
    // real dwell time; make sure the map isn't degenerate.
    EXPECT_GT(series.transitions.pair(CStateId::C0, CStateId::C6A)
                      .count +
                  series.transitions
                      .pair(CStateId::C0, CStateId::C6AE)
                      .count,
              0u);
}

TEST(TransitionIntegration, GovernorObserveIdleMatchesGroundTruth)
{
    // Satellite check: every observeIdle() the governor receives
    // must equal the recorder's own idle-period bookkeeping --
    // including promotion re-entries (idle start preserved) and
    // mispredicted entries (observation at the arrival, not the
    // scheduled wake). Cover both the plain and the
    // promotion-enabled paths.
    for (const bool promotion : {false, true}) {
        auto cfg = server::ServerConfig::awBaseline();
        cfg.cores = 4;
        cfg.seed = 11;
        cfg.idlePromotion = promotion;
        server::ServerSim srv(cfg,
                              workload::WorkloadProfile::memcached(),
                              60e3);
        TimelineConfig tc;
        tc.intervalSeconds = 0.05;
        TimelineRecorder rec(tc, cfg.cores);
        srv.setObserver(&rec);
        const auto r = srv.run(sim::fromSec(0.3), sim::fromSec(0.03));

        const TimelineSeries &series = rec.series();
        EXPECT_GT(series.idleObservations, 0u)
            << "promotion=" << promotion;
        EXPECT_EQ(series.idleObservationMismatches, 0u)
            << "promotion=" << promotion;
        EXPECT_GT(series.idleObservedTotal, 0u);
        // Mispredicts happened, so the tricky observation path (the
        // arrival interrupts a transition window) was exercised.
        if (!promotion) {
            EXPECT_GT(r.mispredictedEntries, 0u);
        }
    }
}

} // namespace
