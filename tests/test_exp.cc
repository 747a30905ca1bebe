/**
 * @file
 * Unit tests for the experiment engine: spec expansion and
 * validation, the work-stealing thread pool, result lookups,
 * artifact emission and -- the engine's core contract -- bitwise
 * determinism of a sweep regardless of thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/axis.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "sim/random.hh"

namespace {

using namespace aw;
using exp::ExperimentSpec;
using exp::GridPoint;
using exp::PointResult;
using exp::SweepRunner;
using exp::ThreadPool;

// ------------------------------------------------------------- spec

TEST(ExperimentSpec, SingleServerGridShapeAndOrder)
{
    ExperimentSpec spec;
    spec.workloads = {"memcached", "mysql"};
    spec.configs = {"baseline", "aw", "c1c6"};
    spec.qps = {10e3, 20e3};
    spec.replicas = 2;

    EXPECT_EQ(spec.gridSize(), 2u * 3u * 2u * 2u);
    const auto grid = spec.expand();
    ASSERT_EQ(grid.size(), spec.gridSize());

    // Expansion order: workload, config, policy, K, qps, variant,
    // replica (outer to inner); indices are the positions.
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(grid[i].index, i);
    EXPECT_EQ(grid[0].workload, "memcached");
    EXPECT_EQ(grid[0].config, "baseline");
    EXPECT_EQ(grid[0].qps, 10e3);
    EXPECT_EQ(grid[0].replica, 0u);
    EXPECT_EQ(grid[1].replica, 1u);
    EXPECT_EQ(grid[2].qps, 20e3);
    EXPECT_EQ(grid[4].config, "aw");
    EXPECT_EQ(grid[12].workload, "mysql");

    // Single-server points: no policy, no fleet.
    for (const auto &pt : grid) {
        EXPECT_EQ(pt.servers, 0u);
        EXPECT_TRUE(pt.policy.empty());
    }
}

TEST(ExperimentSpec, FleetGridScalesPerServerQps)
{
    ExperimentSpec spec;
    spec.configs = {"c1c6"};
    spec.policies = {"round-robin", "pack-first"};
    spec.fleetSizes = {2, 8};
    spec.qps = {50e3};
    spec.qpsPerServer = true;

    const auto grid = spec.expand();
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid[0].servers, 2u);
    EXPECT_DOUBLE_EQ(grid[0].qps, 100e3);
    EXPECT_EQ(grid[1].servers, 8u);
    EXPECT_DOUBLE_EQ(grid[1].qps, 400e3);
    EXPECT_EQ(grid[0].policy, "round-robin");
    EXPECT_EQ(grid[2].policy, "pack-first");
}

TEST(ExperimentSpec, FleetModeDefaultsToRoundRobin)
{
    ExperimentSpec spec;
    spec.fleetSizes = {4};
    const auto grid = spec.expand();
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid[0].policy, "round-robin");
}

TEST(ExperimentSpec, GovernorAxisExpandsBetweenConfigAndPolicy)
{
    ExperimentSpec spec;
    spec.configs = {"baseline", "aw"};
    spec.governors = {"menu", "teo", "static:C6"};
    spec.qps = {10e3};

    EXPECT_EQ(spec.gridSize(), 2u * 3u);
    const auto grid = spec.expand();
    ASSERT_EQ(grid.size(), 6u);
    EXPECT_EQ(grid[0].governor, "menu");
    EXPECT_EQ(grid[1].governor, "teo");
    EXPECT_EQ(grid[2].governor, "static:C6");
    EXPECT_EQ(grid[3].config, "aw");
    EXPECT_EQ(grid[3].governor, "menu");
    EXPECT_NE(grid[2].label().find("static:C6"), std::string::npos);
}

TEST(ExperimentSpec, EmptyGovernorAxisLeavesGridUnchanged)
{
    // Backward compatibility: without the axis the grid (indices,
    // seeds, labels) is exactly the pre-governor grid.
    ExperimentSpec spec;
    spec.configs = {"baseline", "aw"};
    spec.qps = {10e3, 20e3};
    const auto grid = spec.expand();
    for (const auto &pt : grid) {
        EXPECT_TRUE(pt.governor.empty());
        EXPECT_EQ(pt.label().find("menu"), std::string::npos);
    }
}

TEST(ExperimentSpec, VariantAxisExpands)
{
    ExperimentSpec spec;
    spec.variants = {"alpha", "beta", "gamma"};
    const auto grid = spec.expand();
    ASSERT_EQ(grid.size(), 3u);
    EXPECT_EQ(grid[1].variant, "beta");
}

TEST(ExperimentSpecDeathTest, RejectsBadSpecs)
{
    ExperimentSpec spec;
    spec.configs = {"no_such_config"};
    EXPECT_EXIT(spec.validate(), testing::ExitedWithCode(1),
                "unknown config");

    ExperimentSpec empty;
    empty.qps = {};
    EXPECT_EXIT(empty.validate(), testing::ExitedWithCode(1),
                "empty qps");

    ExperimentSpec neg;
    neg.qps = {-5.0};
    EXPECT_EXIT(neg.validate(), testing::ExitedWithCode(1),
                "positive");

    ExperimentSpec pol;
    pol.policies = {"round-robin"}; // policies without a fleet axis
    EXPECT_EXIT(pol.validate(), testing::ExitedWithCode(1),
                "fleet-size");

    ExperimentSpec scaled;
    scaled.qpsPerServer = true; // per-server qps without fleets
    EXPECT_EXIT(scaled.validate(), testing::ExitedWithCode(1),
                "fleet-size");

    ExperimentSpec warm;
    warm.warmupSeconds = 0.1; // warmup with an auto-sized window
    EXPECT_EXIT(warm.validate(), testing::ExitedWithCode(1),
                "warmupSeconds");

    ExperimentSpec gov;
    gov.governors = {"no_such_governor"};
    EXPECT_EXIT(gov.validate(), testing::ExitedWithCode(1),
                "unknown governor");

    // A static spec naming a state one of the grid's configs
    // disables must die at validation, not inside a worker.
    ExperimentSpec mismatch;
    mismatch.configs = {"c1c6", "c1only"};
    mismatch.governors = {"static:C6"};
    EXPECT_EXIT(mismatch.validate(), testing::ExitedWithCode(1),
                "requires C6 enabled");

    ExperimentSpec oracle_fleet;
    oracle_fleet.governors = {"oracle"}; // needs foreknowledge
    oracle_fleet.fleetSizes = {4};
    EXPECT_EXIT(oracle_fleet.validate(), testing::ExitedWithCode(1),
                "single-server only");

    ExperimentSpec oracle_packing;
    oracle_packing.governors = {"oracle"};
    oracle_packing.dispatch = "packing";
    EXPECT_EXIT(oracle_packing.validate(),
                testing::ExitedWithCode(1), "static dispatch");

    ExperimentSpec disp;
    disp.dispatch = "no_such_dispatch";
    EXPECT_EXIT(disp.validate(), testing::ExitedWithCode(1),
                "unknown dispatch");
}

TEST(ExperimentSpec, RegistriesResolveEveryAdvertisedName)
{
    for (const auto &w : exp::workloadNames())
        EXPECT_EQ(exp::profileByName(w).name().empty(), false) << w;
    for (const auto &c : exp::configNames()) {
        const auto cfg = exp::configByName(c);
        EXPECT_GT(cfg.cores, 0u) << c;
    }
}

// --------------------------------------------------- axis registry

/** A result holding @p spec's grid without running it. */
exp::SweepResult
unrunSweep(const ExperimentSpec &spec)
{
    exp::SweepResult r;
    r.spec = spec;
    for (const auto &pt : spec.expand()) {
        PointResult p;
        p.point = pt;
        r.points.push_back(p);
    }
    return r;
}

TEST(AxisRegistry, EveryAxisDoublesTheGridAndShowsInEveryView)
{
    // Two valid values per axis, in its flag syntax (replica is a
    // count). A registry entry without a row here fails below.
    const std::map<std::string, std::string> two = {
        {"workload", "memcached,mysql"},
        {"config", "baseline,aw"},
        {"governor", "menu,teo"},
        {"freq_policy", "performance,powersave"},
        {"slo_us", "4,8"},
        {"cap_w", "30,40"},
        {"policy", "round-robin,pack-first"},
        {"servers", "2,4"},
        {"qps", "1000,2000"},
        {"variant", "a,b"},
        {"replica", "2"},
    };
    ExperimentSpec base;
    base.fleetSizes = {1}; // so the policy axis is valid
    ASSERT_EQ(base.gridSize(), 1u);
    const std::string base_csv = exp::csvHeader(unrunSweep(base));
    const std::string base_json = exp::toJson(unrunSweep(base));

    for (const exp::Axis &axis : exp::axes()) {
        SCOPED_TRACE(axis.key);
        ASSERT_TRUE(two.contains(axis.key));
        ExperimentSpec spec = base;
        axis.parse(axis, spec, two.at(axis.key).c_str());
        EXPECT_TRUE(axis.swept(spec));
        EXPECT_EQ(spec.gridSize(), 2 * base.gridSize());

        const auto sweep = unrunSweep(spec);
        ASSERT_EQ(sweep.points.size(), 2u);
        for (const auto &p : sweep.points)
            EXPECT_NE(p.point.label().find(
                          axis.format(axis.label, p.point)),
                      std::string::npos)
                << p.point.label();
        EXPECT_NE(sweep.points[0].point.label(),
                  sweep.points[1].point.label());

        // The column is always there, or only once swept.
        const std::string col = "," + std::string(axis.key) + ",";
        const std::string member = "\"" + std::string(axis.key) + "\": ";
        EXPECT_NE(exp::csvHeader(sweep).find(col), std::string::npos);
        EXPECT_NE(exp::toJson(sweep).find(member), std::string::npos);
        EXPECT_EQ(base_csv.find(col) == std::string::npos,
                  axis.optionalColumn);
        EXPECT_EQ(base_json.find(member) == std::string::npos,
                  axis.optionalColumn);

        exp::SweepResult::Query q;
        axis.pin(q, sweep.points[1].point);
        const auto hits = sweep.select(q);
        ASSERT_EQ(hits.size(), 1u);
        EXPECT_EQ(hits.front()->point.index, 1u);
    }
}

TEST(AxisRegistry, ColumnsAreAPermutationOfTheTable)
{
    std::set<unsigned> columns;
    std::set<std::string> keys;
    for (const exp::Axis &axis : exp::axes()) {
        columns.insert(axis.column);
        keys.insert(axis.key);
        EXPECT_EQ(&exp::axis(axis.key), &axis);
    }
    EXPECT_EQ(columns.size(), exp::axes().size());
    EXPECT_EQ(*columns.rbegin(), exp::axes().size() - 1);
    EXPECT_EQ(keys.size(), exp::axes().size());
}

// ------------------------------------------------- seed derivation

TEST(ExperimentSpec, GridSeedsArePairwiseDistinct)
{
    ExperimentSpec spec;
    spec.workloads = {"memcached", "mysql", "kafka"};
    spec.configs = {"baseline", "aw", "c1c6", "c1only"};
    spec.qps = {1e3, 2e3, 3e3, 4e3, 5e3};
    spec.replicas = 10;

    std::set<std::uint64_t> seeds;
    for (const auto &pt : spec.expand())
        seeds.insert(pt.seed);
    EXPECT_EQ(seeds.size(), spec.gridSize());

    // Streams from a different base seed are (overwhelmingly)
    // disjoint too.
    spec.seed = 43;
    for (const auto &pt : spec.expand())
        seeds.insert(pt.seed);
    EXPECT_EQ(seeds.size(), 2 * spec.gridSize());
}

TEST(DeriveSeed, StreamsOfOneBaseAreInjective)
{
    // splitmix64 finalizes base + stream * odd-constant, which is
    // injective in the stream index: no two grid points of any
    // spec can ever share an RNG stream.
    std::set<std::uint64_t> seeds;
    for (std::uint64_t s = 0; s < 10000; ++s)
        seeds.insert(sim::deriveSeed(42, s));
    EXPECT_EQ(seeds.size(), 10000u);
}

// ------------------------------------------------------ ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 50 * (round + 1));
    }
}

TEST(ThreadPool, IdleWorkersStealQueuedWork)
{
    // 2 workers, 2 long tasks then many short ones: round-robin
    // submission puts half the short tasks behind each long task,
    // but stealing lets whichever worker frees up first drain the
    // backlog. The pool completing everything (quickly) under
    // wait() is the observable contract.
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    for (int i = 0; i < 200; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ZeroResolvesToHardwareConcurrency)
{
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(7), 7u);
}

// ------------------------------------------------------ SweepRunner

/** A cheap deterministic point function (no simulation). */
PointResult
fakePoint(const GridPoint &pt)
{
    PointResult res;
    res.point = pt;
    res.requests = pt.index + 1;
    res.powerW = static_cast<double>(pt.seed % 1000) / 10.0;
    res.extras.emplace_back("answer", 42.0);
    return res;
}

TEST(SweepRunner, FoldsResultsInGridOrder)
{
    ExperimentSpec spec;
    spec.qps = {1e3, 2e3, 3e3};
    spec.replicas = 4;
    const auto result = SweepRunner(3).run(spec, fakePoint);
    ASSERT_EQ(result.points.size(), 12u);
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        EXPECT_EQ(result.points[i].point.index, i);
        EXPECT_EQ(result.points[i].requests, i + 1);
    }
}

TEST(SweepRunner, QueryLookupsSelectCoordinates)
{
    ExperimentSpec spec;
    spec.configs = {"baseline", "aw"};
    spec.qps = {1e3, 2e3};
    const auto result = SweepRunner(1).run(spec, fakePoint);

    EXPECT_EQ(result.select({.config = "aw"}).size(), 2u);
    EXPECT_EQ(result.select({}).size(), 4u);
    const auto &one = result.at({.config = "aw", .qps = 2e3});
    EXPECT_EQ(one.point.config, "aw");
    EXPECT_EQ(one.point.qps, 2e3);
}

TEST(SweepRunnerDeathTest, AmbiguousAtIsFatal)
{
    ExperimentSpec spec;
    spec.configs = {"baseline", "aw"};
    const auto result = SweepRunner(1).run(spec, fakePoint);
    EXPECT_EXIT(result.at({}), testing::ExitedWithCode(1),
                "matches");
}

// --------------------------------------------------- emit + schema

TEST(Emit, CsvSchemaIsStable)
{
    ExperimentSpec spec;
    const auto result = SweepRunner(1).run(spec, fakePoint);
    const auto csv = exp::toCsv(result);
    EXPECT_EQ(csv.substr(0, csv.find('\n')),
              "index,workload,config,governor,policy,variant,"
              "servers,qps,replica,seed,requests,achieved_qps,"
              "window_s,power_w,mj_per_request,avg_latency_us,"
              "p99_latency_us,deep_idle,min_server_deep,"
              "max_server_deep,busiest_share,res_c0,res_c1,res_c1e,"
              "res_c6a,res_c6ae,res_c6,answer");
    // Header + one line per point, newline-terminated.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              1 + result.points.size());
}

TEST(Emit, JsonCarriesEveryPoint)
{
    ExperimentSpec spec;
    spec.qps = {1e3, 2e3};
    const auto result = SweepRunner(1).run(spec, fakePoint);
    const auto json = exp::toJson(result);
    std::size_t occurrences = 0;
    std::size_t pos = 0;
    while ((pos = json.find("\"index\":", pos)) !=
           std::string::npos) {
        ++occurrences;
        pos += 1;
    }
    EXPECT_EQ(occurrences, result.points.size());
    EXPECT_NE(json.find("\"answer\": 42"), std::string::npos);
}

// ---------------------------------------------------- determinism

TEST(SweepDeterminism, FleetSweepIsBitIdenticalAcrossThreadCounts)
{
    // The acceptance-criteria property, shrunk to test size: the
    // PR-2 policy x config grid shape, two thread counts, identical
    // CSV bytes.
    ExperimentSpec spec;
    spec.name = "determinism";
    spec.configs = {"c1c6", "aw_c6a"};
    spec.policies = {"round-robin", "pack-first"};
    spec.fleetSizes = {2};
    spec.qps = {20e3};
    spec.seconds = 0.03;
    spec.warmupSeconds = 0.003;

    const auto serial = SweepRunner(1).run(spec);
    const auto parallel = SweepRunner(8).run(spec);
    EXPECT_EQ(exp::toCsv(serial), exp::toCsv(parallel));
    EXPECT_EQ(exp::toJson(serial), exp::toJson(parallel));
}

TEST(SweepDeterminism, SingleServerSweepIsBitIdentical)
{
    ExperimentSpec spec;
    spec.configs = {"baseline", "aw"};
    spec.qps = {30e3, 60e3};
    spec.seconds = 0.02;
    spec.warmupSeconds = 0.002;
    spec.replicas = 2;

    const auto a = SweepRunner(1).run(spec);
    const auto b = SweepRunner(5).run(spec);
    EXPECT_EQ(exp::toCsv(a), exp::toCsv(b));
}

TEST(SweepDeterminism, GovernorSweepIsBitIdenticalAcrossThreadCounts)
{
    // The acceptance-criteria grid, shrunk: every built-in governor
    // (including the clairvoyant oracle) over the default config,
    // identical artifact bytes at 1 and 8 threads.
    ExperimentSpec spec;
    spec.name = "governor-determinism";
    spec.configs = {"baseline"};
    spec.governors = {"menu", "teo", "ladder", "oracle",
                      "static:C6"};
    spec.qps = {30e3};
    spec.seconds = 0.03;
    spec.warmupSeconds = 0.003;

    const auto serial = SweepRunner(1).run(spec);
    const auto parallel = SweepRunner(8).run(spec);
    EXPECT_EQ(exp::toCsv(serial), exp::toCsv(parallel));
    EXPECT_EQ(exp::toJson(serial), exp::toJson(parallel));

    // And the axis actually changes behavior: always-C6 spends far
    // more time deep than menu at this load.
    EXPECT_GT(serial.at({.governor = "static:C6"}).deepIdleShare,
              serial.at({.governor = "menu"}).deepIdleShare + 0.2);
}

TEST(SweepDeterminism, ReplicasDifferButRerunsDoNot)
{
    ExperimentSpec spec;
    spec.configs = {"aw"};
    spec.qps = {40e3};
    spec.seconds = 0.02;
    spec.warmupSeconds = 0.002;
    spec.replicas = 2;

    const auto result = SweepRunner(2).run(spec);
    ASSERT_EQ(result.points.size(), 2u);
    // Distinct seed replicas see distinct arrival streams.
    EXPECT_NE(result.points[0].requests, 0u);
    EXPECT_NE(result.points[0].point.seed,
              result.points[1].point.seed);
    EXPECT_NE(result.points[0].requests,
              result.points[1].requests);

    // A rerun of the same spec reproduces the sweep exactly.
    const auto again = SweepRunner(2).run(spec);
    EXPECT_EQ(exp::toCsv(result), exp::toCsv(again));
}

} // namespace
