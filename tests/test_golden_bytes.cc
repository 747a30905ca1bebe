/**
 * @file
 * Golden byte-identity suite for the optimized simulation kernel.
 *
 * The files under tests/golden/ were generated by the pre-overhaul
 * engine (PR 4, commit 0acd5d5) via awsweep with the exact specs
 * reproduced below. The kernel speed overhaul's contract is that
 * every optimization is invisible to results: these tests regenerate
 * the artifacts with the current engine -- at 1 and at 8 worker
 * threads -- and require the CSV and JSON renderings to match the
 * stored bytes exactly.
 *
 * If a deliberate model change ever invalidates them, regenerate
 * with the commands in tests/golden/README.md and explain the drift
 * in the commit message; a mismatch must never be waved through as
 * noise, because these bytes are how we know the fast path and the
 * reference path are the same simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/sampler.hh"
#include "cluster/fleet.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"

namespace {

using namespace aw;

#ifndef AW_GOLDEN_DIR
#define AW_GOLDEN_DIR "tests/golden"
#endif

std::string
readGolden(const std::string &name)
{
    const std::string path = std::string(AW_GOLDEN_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** The pinned fleet sweep (awperf's 2x-target scenario): awsweep
 *  --workloads memcached --configs aw,c1c6 --policies
 *  round-robin,pack-first --fleet 8 --qps 400000 --seconds 0.3. */
exp::ExperimentSpec
fleetSpec()
{
    exp::ExperimentSpec spec;
    spec.name = "awsweep"; // the CLI default the goldens carry
    spec.workloads = {"memcached"};
    spec.configs = {"aw", "c1c6"};
    spec.policies = {"round-robin", "pack-first"};
    spec.fleetSizes = {8};
    spec.qps = {400e3};
    spec.seconds = 0.3;
    spec.seed = 42;
    return spec;
}

/** The governors-axis sweep: awsweep --configs c1c6,aw --governors
 *  menu,teo,ladder --qps 50000,200000 --seconds 0.3. */
exp::ExperimentSpec
governorsSpec()
{
    exp::ExperimentSpec spec;
    spec.name = "awsweep";
    spec.workloads = {"memcached"};
    spec.configs = {"c1c6", "aw"};
    spec.governors = {"menu", "teo", "ladder"};
    spec.qps = {50e3, 200e3};
    spec.seconds = 0.3;
    spec.seed = 42;
    return spec;
}

class GoldenBytes
    : public ::testing::TestWithParam<unsigned /*threads*/>
{};

TEST_P(GoldenBytes, FleetSweepCsvAndJsonMatchPreOverhaulEngine)
{
    const auto result =
        exp::SweepRunner(GetParam()).run(fleetSpec());
    EXPECT_EQ(exp::toCsv(result), readGolden("fleet_sweep.csv"));
    EXPECT_EQ(exp::toJson(result), readGolden("fleet_sweep.json"));
}

TEST_P(GoldenBytes, GovernorsSweepCsvAndJsonMatchPreOverhaulEngine)
{
    const auto result =
        exp::SweepRunner(GetParam()).run(governorsSpec());
    EXPECT_EQ(exp::toCsv(result),
              readGolden("governors_sweep.csv"));
    EXPECT_EQ(exp::toJson(result),
              readGolden("governors_sweep.json"));
}

TEST_P(GoldenBytes, TimelineSamplerLeavesArtifactsByteIdentical)
{
    // The sampler's passivity contract: running the pinned fleet
    // sweep WITH streaming telemetry enabled must reproduce the
    // pre-sampler goldens bit for bit -- the observer sees the
    // event stream, it never perturbs it.
    auto spec = fleetSpec();
    spec.timelineIntervalSeconds = 0.01;
    const auto result = exp::SweepRunner(GetParam()).run(spec);
    EXPECT_EQ(exp::toCsv(result), readGolden("fleet_sweep.csv"));
    EXPECT_EQ(exp::toJson(result), readGolden("fleet_sweep.json"));
    // And the timeline artifact itself is thread-count invariant
    // (every point's series rides in its pre-assigned slot).
    for (const auto &p : result.points)
        ASSERT_TRUE(p.timeline.has_value());
}

TEST_P(GoldenBytes, RequestTracerLeavesArtifactsByteIdentical)
{
    // The request tracer's passivity contract, pinned the same way
    // as the sampler's: the fleet sweep WITH per-request tracing
    // enabled must still reproduce the pre-tracer goldens bit for
    // bit.
    auto spec = fleetSpec();
    spec.traceRequests = true;
    const auto result = exp::SweepRunner(GetParam()).run(spec);
    EXPECT_EQ(exp::toCsv(result), readGolden("fleet_sweep.csv"));
    EXPECT_EQ(exp::toJson(result), readGolden("fleet_sweep.json"));
    for (const auto &p : result.points)
        ASSERT_TRUE(p.trace.has_value());
}

TEST_P(GoldenBytes, TraceAttributionCsvMatchesGolden)
{
    // The aw-trace/1 attribution artifact itself is pinned (and
    // thread-count invariant): regenerate with
    //
    //   awsweep --configs aw,c1c6 --policies round-robin,pack-first \
    //           --fleet 8 --qps 400000 --seconds 0.3 \
    //           --trace-requests trace_attribution.csv --quiet
    auto spec = fleetSpec();
    spec.traceRequests = true;
    const auto result = exp::SweepRunner(GetParam()).run(spec);
    EXPECT_EQ(exp::toTraceCsv(result),
              readGolden("trace_attribution.csv"));
}

TEST(TraceAttribution, LegacyC6DominatesTheTailWhereAwDoesNot)
{
    // The headline the tracer exists to print (Sec 1 / Fig 1 of the
    // paper, as a tail decomposition): at the idle-heavy end of the
    // PR-2 fleet grid -- the low-utilization regime datacenter
    // fleets actually run in -- tuned-C6 memcached spends an order
    // of magnitude more of its p99 latency waking cores than the AW
    // config does, because C6A's sub-microsecond exit removes the
    // wake cost from the tail. (At the 400 kQPS peak the menu
    // governor stops selecting C6 altogether, so the discriminating
    // point is the lightly loaded one; the peak's artifact bytes
    // stay pinned by the goldens above.)
    auto spec = fleetSpec();
    spec.configs = {"aw_c6a", "c1c6"};
    spec.policies = {"round-robin"};
    spec.qps = {100e3};
    spec.traceRequests = true;
    const auto result = exp::SweepRunner(8).run(spec);
    exp::SweepResult::Query q;
    q.policy = "round-robin";
    q.config = "c1c6";
    const auto &legacy = *result.at(q).trace;
    q.config = "aw_c6a";
    const auto &aw_cfg = *result.at(q).trace;
    EXPECT_GT(legacy.p99.wakeShare, 10.0 * aw_cfg.p99.wakeShare);
    EXPECT_GT(legacy.p99.wakeShare, 0.05);
    // The wake cost the legacy tail pays comes from C6; the AW side
    // cannot pay it at all, because C6A replaces C6 in its state set.
    const auto c6 = cstate::index(cstate::CStateId::C6);
    EXPECT_GT(legacy.p99.wakeCount[c6], 0u);
    EXPECT_EQ(aw_cfg.p99.wakeCount[c6], 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenBytes,
                         ::testing::Values(1u, 8u),
                         [](const auto &info) {
                             return "threads" +
                                    std::to_string(info.param);
                         });

// ------------------------------------------------ DVFS governance

/** The joint freq x idle sweep behind the DVFS headline: awsweep
 *  --configs c1c6,aw --freq-governors racetohalt,powersave
 *  --slo 0,8 --qps 200000 --seconds 0.3. */
exp::ExperimentSpec
dvfsSpec()
{
    exp::ExperimentSpec spec;
    spec.name = "awsweep";
    spec.workloads = {"memcached"};
    spec.configs = {"c1c6", "aw"};
    spec.freqPolicies = {"racetohalt", "powersave"};
    spec.sloUs = {0.0, 8.0};
    spec.qps = {200e3};
    spec.seconds = 0.3;
    spec.seed = 42;
    return spec;
}

TEST(GoldenBytesDvfs, FreqAxisSweepIsThreadCountInvariant)
{
    // The freq/slo axes ride the same determinism contract as every
    // other axis: per-point seeds are derived from coordinates, so
    // worker-thread count must be invisible in the artifact bytes.
    const auto spec = dvfsSpec();
    const auto one = exp::SweepRunner(1).run(spec);
    const auto eight = exp::SweepRunner(8).run(spec);
    EXPECT_EQ(exp::toCsv(one), exp::toCsv(eight));
    EXPECT_EQ(exp::toJson(one), exp::toJson(eight));
    // The conditional columns are present exactly when swept.
    EXPECT_NE(exp::toCsv(one).find(",freq_policy,slo_us,"),
              std::string::npos);
}

TEST(GoldenBytesDvfs, RaceToHaltVsPaceToIdleHeadline)
{
    // The joint-governance headline (Sec 5's DVFS interaction, run
    // through the cpufreq lens): race-to-halt -- sprint at P1, hand
    // the idle governor the longest possible gaps -- is a power
    // LOSER on the legacy tuned-C6 config, because the sprint's
    // short gaps cannot amortize C6 entry and the saved time rots
    // in shallow idle. Under AW the same policy wins outright: the
    // gaps sink into C6A, so racing beats pacing (powersave) on
    // latency while matching the legacy config's pacing power.
    const auto result = exp::SweepRunner(8).run(dvfsSpec());
    exp::SweepResult::Query q;
    q.sloUs = 0.0;
    q.config = "c1c6";
    q.freqPolicy = "racetohalt";
    const auto &legacy_race = result.at(q);
    q.freqPolicy = "powersave";
    const auto &legacy_pace = result.at(q);
    q.config = "aw";
    const auto &aw_pace = result.at(q);
    q.freqPolicy = "racetohalt";
    const auto &aw_race = result.at(q);

    // Tuned C6: racing buys ~20% p99 for ~5 W -- the classic
    // latency/power trade.
    EXPECT_LT(legacy_race.p99LatencyUs, legacy_pace.p99LatencyUs);
    EXPECT_GT(legacy_race.powerW, legacy_pace.powerW + 3.0);
    // AW removes the trade: racing is cheaper than LEGACY pacing
    // and roughly halves its p99.
    EXPECT_LT(aw_race.powerW, legacy_pace.powerW);
    EXPECT_LT(aw_race.p99LatencyUs, 0.6 * legacy_pace.p99LatencyUs);
    EXPECT_LT(aw_race.p99LatencyUs, aw_pace.p99LatencyUs);
    // Mechanism: the sprint gaps harvest deep residency only when
    // C6A's cheap entry is available.
    EXPECT_LT(legacy_race.deepIdleShare, 0.05);
    EXPECT_GT(aw_race.deepIdleShare, 0.5);

    // A PM-QoS SLO is the other escape hatch: flooring the ladder
    // pulls pace-to-idle's tail back near the racing tail, at the
    // racing power bill.
    q.sloUs = 8.0;
    q.config = "c1c6";
    q.freqPolicy = "powersave";
    const auto &legacy_pace_slo = result.at(q);
    EXPECT_LT(legacy_pace_slo.p99LatencyUs,
              0.5 * legacy_pace.p99LatencyUs);
    EXPECT_LT(legacy_pace_slo.p99LatencyUs,
              legacy_race.p99LatencyUs + 2.0);
}

// -------------------------------------- epoch-parallel fleet kernel

/** (fleetThreads, epochSeconds) pairs for the kernel suite. */
struct FleetKnobs
{
    unsigned fleetThreads;
    double epochSeconds;
};

class GoldenBytesFleetKernel
    : public ::testing::TestWithParam<FleetKnobs>
{};

TEST_P(GoldenBytesFleetKernel, FleetSweepBytesSurviveTheKernel)
{
    // The epoch-parallel kernel's contract against the pre-overhaul
    // goldens: per-fleet worker threads and routing-decision epochs
    // are execution detail, never observable in the artifacts. The
    // sweep itself runs single-threaded so only the fleet-internal
    // kernel is under test.
    auto spec = fleetSpec();
    spec.fleetThreads = GetParam().fleetThreads;
    spec.epochSeconds = GetParam().epochSeconds;
    spec.traceRequests = true;
    const auto result = exp::SweepRunner(1).run(spec);
    EXPECT_EQ(exp::toCsv(result), readGolden("fleet_sweep.csv"));
    EXPECT_EQ(exp::toJson(result), readGolden("fleet_sweep.json"));
    EXPECT_EQ(exp::toTraceCsv(result),
              readGolden("trace_attribution.csv"));
}

INSTANTIATE_TEST_SUITE_P(
    Kernel, GoldenBytesFleetKernel,
    ::testing::Values(FleetKnobs{2, 0.0}, FleetKnobs{8, 0.0},
                      FleetKnobs{8, 0.05}, FleetKnobs{1, 0.013}),
    [](const auto &info) {
        return "threads" + std::to_string(info.param.fleetThreads) +
               "_epoch" +
               std::to_string(static_cast<unsigned>(
                   info.param.epochSeconds * 1000)) +
               "ms";
    });

// ------------------------------------------------ diurnal timeline

/** The pinned diurnal fleet scenario, reproducible from the CLI:
 *
 *    awsim --fleet 8 --config aw --qps 400000 --seconds 0.4 \
 *          --warmup 0.04 --diurnal 0.6 --diurnal-period 0.4 \
 *          --seed 42 --timeline diurnal_timeline.csv
 *
 *  Eight servers ride one sinusoidal "day" through the measured
 *  window, so the timeline sweeps from peak load down through the
 *  trough the paper's fleet argument is about (Sec 2). */
analysis::TimelineSeries
diurnalTimeline(unsigned fleet_threads = 1,
                double epoch_seconds = 0.0)
{
    cluster::FleetConfig fc;
    fc.servers = 8;
    fc.server = exp::configByName("aw");
    fc.server.idlePromotion = true;
    fc.seed = 42;
    fc.schedule = cluster::RateSchedule::sinusoidal(
        sim::fromSec(0.4), 0.6);
    fc.fleetThreads = fleet_threads;
    fc.epochSeconds = epoch_seconds;
    cluster::FleetSim fleet(fc, exp::profileByName("memcached"),
                            400e3);
    analysis::TimelineConfig tc;
    tc.intervalSeconds = 0.01;
    fleet.enableTimeline(tc);
    const auto r = fleet.run(sim::fromSec(0.4), sim::fromSec(0.04));
    return *r.timeline;
}

TEST(GoldenTimelineBytes, DiurnalFleetTimelineMatchesGolden)
{
    EXPECT_EQ(analysis::timelineCsv(diurnalTimeline()),
              readGolden("diurnal_timeline.csv"));
}

TEST(GoldenTimelineBytes, EpochParallelKernelReproducesTheGolden)
{
    // The same pinned diurnal day through the epoch-parallel kernel
    // (8 fleet threads, 50 ms routing epochs): the timeline fold
    // walks per-server slots in index order, so the bytes must not
    // move.
    EXPECT_EQ(analysis::timelineCsv(diurnalTimeline(8, 0.05)),
              readGolden("diurnal_timeline.csv"));
}

// ------------------------------------------------- power capping

/** The capped fleet grid behind the cap-tightness headline:
 *  awsweep --configs aw_c6a,c1c6 --policies route-to-headroom
 *  --fleet 4 --qps 200000 --seconds 0.3 --epoch 0.05
 *  --caps 0,18,22 --thermal. */
exp::ExperimentSpec
capSpec()
{
    exp::ExperimentSpec spec;
    spec.name = "awsweep";
    spec.workloads = {"memcached"};
    spec.configs = {"aw_c6a", "c1c6"};
    spec.policies = {"route-to-headroom"};
    spec.fleetSizes = {4};
    spec.qps = {200e3};
    spec.capWatts = {0.0, 18.0, 22.0};
    spec.thermal = true;
    spec.seconds = 0.3;
    spec.epochSeconds = 0.05;
    spec.seed = 42;
    return spec;
}

class GoldenBytesCap
    : public ::testing::TestWithParam<unsigned /*threads*/>
{};

TEST_P(GoldenBytesCap, AwSustainsATighterCapAtEqualTailLatency)
{
    // The subsystem's headline (the production face of the paper's
    // Sec 6 energy story): under an oversubscribed power budget the
    // controller's forced idle lands in C6A on the AW fleet --
    // sub-microsecond wakes -- and in legacy C6 on the tuned-C6
    // fleet, so AW sustains a ~20% tighter cap at the same ~1 ms
    // tail. Parametrized over sweep threads: the numbers must not
    // move with scheduling.
    const auto result = exp::SweepRunner(GetParam()).run(capSpec());
    exp::SweepResult::Query q;
    q.policy = "route-to-headroom";
    q.config = "aw_c6a";
    q.capWatts = 18.0;
    const auto &aw_18 = result.at(q);
    q.capWatts = 0.0;
    const auto &aw_free = result.at(q);
    q.config = "c1c6";
    const auto &c6_free = result.at(q);
    q.capWatts = 18.0;
    const auto &c6_18 = result.at(q);
    q.capWatts = 22.0;
    const auto &c6_22 = result.at(q);

    // Equal-cap framing: at 18 W/server the legacy fleet's p99 is
    // several times worse, because every throttle nap pays a full
    // C6 wake on the way out.
    EXPECT_GT(c6_18.p99LatencyUs, 4.0 * aw_18.p99LatencyUs);
    // Equal-tail framing: the AW fleet at 18 W matches the tail the
    // legacy fleet needs 22 W to reach -- an ~18% tighter cap.
    EXPECT_LT(aw_18.p99LatencyUs, 1.3 * c6_22.p99LatencyUs);
    EXPECT_LT(aw_18.p99LatencyUs, 2000.0);
    // Both capped fleets were genuinely throttling (the extras
    // channel carries the cap metrics), and the uncapped points
    // were not.
    auto extra = [](const exp::PointResult &p, const char *key) {
        for (const auto &[k, v] : p.extras)
            if (k == key)
                return v;
        ADD_FAILURE() << "missing extra " << key;
        return 0.0;
    };
    EXPECT_GT(extra(aw_18, "cap_throttle_share"), 0.5);
    EXPECT_GT(extra(c6_18, "cap_throttle_share"), 0.5);
    EXPECT_EQ(extra(aw_free, "cap_throttle_share"), 0.0);
    EXPECT_EQ(extra(c6_free, "cap_throttle_share"), 0.0);
    // The thermal model rode along: temperatures above ambient,
    // below the 85 C trip (these runs throttle on watts, not heat).
    EXPECT_GT(extra(aw_18, "max_temp_c"), 45.0);
    EXPECT_LT(extra(aw_18, "max_temp_c"), 85.0);
    // Mechanism: the forced idle sinks into the C6 family either
    // way -- the difference is purely what a wake out of it costs.
    EXPECT_GT(aw_18.deepIdleShare, 0.85);
    EXPECT_GT(c6_18.deepIdleShare, 0.5);
    EXPECT_LT(c6_free.deepIdleShare, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenBytesCap,
                         ::testing::Values(1u, 8u),
                         [](const auto &info) {
                             return "threads" +
                                    std::to_string(info.param);
                         });

TEST(GoldenBytesCap, CapArtifactsAreThreadAndKernelInvariant)
{
    // The cap axis rides the same determinism contract as every
    // other axis -- across sweep workers AND across the fleet
    // kernel's internal threads (budget schedules are a pure
    // function of the serial balancer pass).
    const auto spec = capSpec();
    const auto one = exp::SweepRunner(1).run(spec);
    const auto eight = exp::SweepRunner(8).run(spec);
    EXPECT_EQ(exp::toCsv(one), exp::toCsv(eight));
    EXPECT_EQ(exp::toJson(one), exp::toJson(eight));

    auto kernel_spec = spec;
    kernel_spec.fleetThreads = 8;
    const auto kernel = exp::SweepRunner(1).run(kernel_spec);
    EXPECT_EQ(exp::toCsv(one), exp::toCsv(kernel));

    // The conditional column is present exactly when swept, and the
    // cap metrics ride the extras columns.
    EXPECT_NE(exp::toCsv(one).find(",cap_w,"), std::string::npos);
    EXPECT_NE(exp::toCsv(one).find(",cap_throttle_share,"),
              std::string::npos);
}

TEST(GoldenBytesCap, GenerousCapLeavesTheSweepResultsUntouched)
{
    // Two one-point grids differing only in a budget nobody
    // reaches: the cap axis arms the control loop (and the epoch
    // redistribution machinery) but must not move a single result
    // -- the sampled controller draws no randomness and never
    // perturbs a core. Grid points derive seeds from their index,
    // so this comparison has to be across specs, not across axis
    // values inside one grid (those are different cells with
    // different seeds by design).
    auto spec = capSpec();
    spec.configs = {"aw_c6a"};
    spec.policies = {"round-robin"};
    spec.capWatts = {};
    spec.thermal = false;
    const auto plain = exp::SweepRunner(1).run(spec);
    spec.capWatts = {1000.0};
    const auto generous = exp::SweepRunner(1).run(spec);
    ASSERT_EQ(plain.points.size(), 1u);
    ASSERT_EQ(generous.points.size(), 1u);
    const auto &p = plain.points.front();
    const auto &g = generous.points.front();
    EXPECT_EQ(p.requests, g.requests);
    EXPECT_DOUBLE_EQ(p.powerW, g.powerW);
    EXPECT_DOUBLE_EQ(p.p99LatencyUs, g.p99LatencyUs);
    EXPECT_DOUBLE_EQ(p.deepIdleShare, g.deepIdleShare);
    // Only the artifact schema differs: the axis adds its column
    // and the cap extras.
    EXPECT_EQ(exp::toCsv(plain).find(",cap_w,"), std::string::npos);
    EXPECT_NE(exp::toCsv(generous).find(",cap_w,"),
              std::string::npos);
}

TEST(GoldenTimelineBytes, DiurnalTroughHarvestsDeepResidency)
{
    // The load trough is where AgileWatts' deep states pay off: in
    // the lightest-loaded interval the fleet must spend most of its
    // core time in the C6 family (Fig 8 pins the aw config's deep
    // aggregate at mid-load; the diurnal trough dips well below
    // that, so the deep share must be at least as high).
    const auto series = diurnalTimeline();
    ASSERT_FALSE(series.samples.empty());
    const auto trough = std::min_element(
        series.samples.begin(), series.samples.end(),
        [](const auto &a, const auto &b) {
            return a.requests < b.requests;
        });
    const double deep =
        trough->residency[cstate::index(cstate::CStateId::C6A)] +
        trough->residency[cstate::index(cstate::CStateId::C6AE)] +
        trough->residency[cstate::index(cstate::CStateId::C6)];
    EXPECT_GE(deep, 0.80) << "trough interval " << trough->index;
    // The peak interval, by contrast, is busier than the trough.
    const auto peak = std::max_element(
        series.samples.begin(), series.samples.end(),
        [](const auto &a, const auto &b) {
            return a.requests < b.requests;
        });
    EXPECT_GT(peak->requests, 2 * trough->requests);
}

// ----------------------------------------- every coordinate column

/** A single-server grid sweeping every optional axis at two values
 *  each. The 40 W cap is never reached at this load, so power-cap
 *  model changes leave these bytes alone. */
exp::ExperimentSpec
allAxesSpec()
{
    exp::ExperimentSpec spec;
    spec.name = "all-axes";
    spec.workloads = {"memcached"};
    spec.configs = {"aw"};
    spec.governors = {"menu", "teo"};
    spec.freqPolicies = {"performance", "racetohalt"};
    spec.sloUs = {0.0, 8.0};
    spec.capWatts = {0.0, 40.0};
    spec.qps = {50e3};
    spec.replicas = 2;
    spec.seconds = 0.004;
    spec.seed = 42;
    return spec;
}

/** Round-robin fleet points with every optional column set, the
 *  timeline and the request trace on. qps x variants pins the one
 *  place where column order (policy,variant,servers,qps,replica)
 *  differs from expansion order (policy,servers,qps,variant,
 *  replica): indices and seeds follow the latter. */
exp::ExperimentSpec
allAxesFleetSpec()
{
    exp::ExperimentSpec spec;
    spec.name = "all-axes-fleet";
    spec.workloads = {"memcached"};
    spec.configs = {"aw"};
    spec.governors = {"menu"};
    spec.freqPolicies = {"ondemand"};
    spec.sloUs = {8.0};
    spec.capWatts = {40.0};
    spec.policies = {"round-robin"};
    spec.fleetSizes = {2};
    spec.qps = {50e3, 100e3};
    spec.variants = {"a", "b"};
    spec.seconds = 0.01;
    spec.timelineIntervalSeconds = 0.005;
    spec.traceRequests = true;
    spec.seed = 42;
    return spec;
}

class GoldenBytesAllAxes
    : public ::testing::TestWithParam<unsigned /*threads*/>
{};

TEST_P(GoldenBytesAllAxes, SweepCsvAndJsonMatchGolden)
{
    const auto result =
        exp::SweepRunner(GetParam()).run(allAxesSpec());
    EXPECT_EQ(exp::toCsv(result), readGolden("all_axes.csv"));
    EXPECT_EQ(exp::toJson(result), readGolden("all_axes.json"));
}

TEST_P(GoldenBytesAllAxes, EverySweepEmitterMatchesGolden)
{
    const auto result =
        exp::SweepRunner(GetParam()).run(allAxesFleetSpec());
    EXPECT_EQ(exp::toCsv(result), readGolden("all_axes_fleet.csv"));
    EXPECT_EQ(exp::toJson(result),
              readGolden("all_axes_fleet.json"));
    EXPECT_EQ(exp::toTimelineCsv(result),
              readGolden("all_axes_fleet_timeline.csv"));
    EXPECT_EQ(exp::toTimelineJson(result),
              readGolden("all_axes_fleet_timeline.json"));
    EXPECT_EQ(exp::toTraceCsv(result),
              readGolden("all_axes_fleet_trace.csv"));
    EXPECT_EQ(exp::toTraceJson(result),
              readGolden("all_axes_fleet_trace.json"));
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenBytesAllAxes,
                         ::testing::Values(1u, 8u),
                         [](const auto &info) {
                             return "threads" +
                                    std::to_string(info.param);
                         });

} // namespace
