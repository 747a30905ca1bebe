#include "exp/runner.hh"

#include <chrono>
#include <deque>
#include <memory>
#include <utility>

#include "analysis/observers.hh"
#include "exp/axis.hh"
#include "sim/logging.hh"

namespace aw::exp {

// ------------------------------------------------------ SweepResult

bool
SweepResult::Query::matches(const GridPoint &pt) const
{
    for (const Axis &a : axes())
        if (!a.matches(*this, pt))
            return false;
    return true;
}

std::vector<const PointResult *>
SweepResult::select(const Query &q) const
{
    std::vector<const PointResult *> out;
    for (const auto &p : points)
        if (q.matches(p.point))
            out.push_back(&p);
    return out;
}

const PointResult &
SweepResult::at(const Query &q) const
{
    const auto matches = select(q);
    if (matches.size() != 1)
        sim::fatal("SweepResult::at: %zu matches (want exactly 1)",
                   matches.size());
    return *matches.front();
}

// --------------------------------------------------------- simulate

RunOutput
simulate(RunSpec run)
{
    const auto [window, warmup] =
        resolveWindow(run.seconds, run.warmupSeconds);
    RunOutput out;

    if (run.fleet.servers > 0) {
        // Fleet runs model cpuidle's tick re-selection so spare
        // servers sink to the deepest state (see docs/FLEET.md).
        run.fleet.server.idlePromotion = true;
        if (run.arrivals)
            run.qps = run.arrivals->meanRatePerSec();
        cluster::FleetSim fleet(std::move(run.fleet),
                                std::move(run.profile), run.qps);
        if (run.arrivals)
            fleet.setArrivalTrace(std::move(*run.arrivals));
        if (run.timeline)
            fleet.enableTimeline(*run.timeline);
        if (run.trace)
            fleet.enableRequestTrace(*run.trace);
        auto r = window > 0 ? fleet.run(window, warmup) : fleet.run();
        out.timeline = std::exchange(r.timeline, std::nullopt);
        out.trace = std::exchange(r.trace, std::nullopt);
        out.fleet = std::move(r);
        return out;
    }

    auto &cfg = run.fleet.server;
    cfg.seed = run.fleet.seed;
    analysis::ServerTelemetry telemetry(run.timeline, run.trace,
                                        cfg.cores);
    std::optional<server::ServerSim> srv;
    if (run.arrivals)
        srv.emplace(std::move(cfg), std::move(run.profile),
                    std::make_unique<workload::TraceArrivals>(
                        std::move(*run.arrivals), /*loop=*/true));
    else
        srv.emplace(std::move(cfg), std::move(run.profile), run.qps);
    telemetry.attach(*srv);
    out.server = window > 0 ? srv->run(window, warmup) : srv->run();
    if (telemetry.recorder)
        out.timeline = std::move(*telemetry.recorder).series();
    if (telemetry.tracer)
        out.trace = std::move(*telemetry.tracer).series();
    return out;
}

// ------------------------------------------------------ SweepRunner

namespace {

/**
 * Per-worker registries: grid points repeat the same few workload
 * and config names thousands of times, and the registry lookups
 * rebuild the profile/config objects from scratch each call. Each
 * worker thread resolves a name once and then copies from its local
 * cache -- reusing simulator construction state across grid points
 * without any cross-thread sharing. Deques, not vectors: returned
 * references must survive later cache growth.
 */
const workload::WorkloadProfile &
cachedProfile(const std::string &name)
{
    thread_local std::deque<
        std::pair<std::string, workload::WorkloadProfile>>
        cache;
    for (const auto &entry : cache)
        if (entry.first == name)
            return entry.second;
    cache.emplace_back(name, profileByName(name));
    return cache.back().second;
}

const server::ServerConfig &
cachedConfig(const std::string &name)
{
    thread_local std::deque<
        std::pair<std::string, server::ServerConfig>>
        cache;
    for (const auto &entry : cache)
        if (entry.first == name)
            return entry.second;
    cache.emplace_back(name, configByName(name));
    return cache.back().second;
}

} // namespace

PointResult
SweepRunner::runPoint(const ExperimentSpec &spec, const GridPoint &pt)
{
    RunSpec run{.profile = cachedProfile(pt.workload),
                .qps = pt.qps,
                .seconds = spec.seconds,
                .warmupSeconds = spec.warmupSeconds};
    auto &fc = run.fleet;
    fc.server = cachedConfig(pt.config);
    fc.seed = pt.seed;
    fc.fleetThreads = spec.fleetThreads;
    fc.epochSeconds = spec.epochSeconds;
    if (spec.cores > 0)
        fc.server.cores = spec.cores;
    for (const Axis &a : axes())
        if (a.apply && a.shown(pt))
            a.apply(pt, fc);
    if (spec.thermal)
        fc.server.cap.thermalEnabled = true;
    if (!spec.dispatch.empty())
        fc.server.dispatch = server::dispatchPolicyByName(spec.dispatch);
    if (spec.timelineIntervalSeconds > 0.0)
        run.timeline.emplace().intervalSeconds =
            spec.timelineIntervalSeconds;
    if (spec.traceRequests)
        run.trace.emplace();

    // Cap metrics ride the extras channel only when the spec engaged
    // the subsystem, so no-axis artifacts keep their pre-cap schema
    // byte for byte.
    const bool cap_metrics = spec.thermal || axis("cap_w").swept(spec);

    auto out = simulate(std::move(run));

    PointResult res;
    res.point = pt;
    res.timeline = std::move(out.timeline);
    // The fields a server's and a fleet's results share.
    const auto fold = [&](const auto &r) {
        if (out.trace) {
            // Attribute and drop the raw spans: a sweep keeps one
            // attribution per point, not millions of span records.
            res.trace = analysis::attributeTail(*out.trace);
            res.p999LatencyUs = r.p999LatencyUs;
        }
        res.events = r.events;
        res.requests = r.requests;
        res.achievedQps = r.achievedQps;
        res.windowSeconds = sim::toSec(r.window);
        res.avgLatencyUs = r.avgLatencyUs;
        res.p99LatencyUs = r.p99LatencyUs;
        res.residency = r.residency.share;
        if (cap_metrics) {
            res.extras.emplace_back("cap_throttle_share",
                                    r.capThrottleShare);
            res.extras.emplace_back("max_temp_c", r.maxTempC);
        }
    };
    if (out.fleet) {
        const auto &r = *out.fleet;
        fold(r);
        res.powerW = r.fleetPower;
        res.energyPerRequestMj = r.energyPerRequestMj;
        res.deepIdleShare = r.deepIdleShare;
        res.minServerDeepShare = r.minServerDeepShare;
        res.maxServerDeepShare = r.maxServerDeepShare;
        res.busiestShareOfLoad = r.busiestShareOfLoad;
    } else {
        const auto &r = *out.server;
        fold(r);
        res.powerW = r.packagePower;
        res.energyPerRequestMj =
            r.requests > 0 ? 1e3 * r.packagePower *
                                 sim::toSec(r.window) / r.requests
                           : 0.0;
        const double deep = cluster::deepIdleShare(r.residency);
        res.deepIdleShare = deep;
        res.minServerDeepShare = deep;
        res.maxServerDeepShare = deep;
        res.busiestShareOfLoad = 1.0;
    }
    return res;
}

SweepResult
SweepRunner::run(const ExperimentSpec &spec) const
{
    return run(spec, [&spec](const GridPoint &pt) {
        return runPoint(spec, pt);
    });
}

SweepResult
SweepRunner::run(const ExperimentSpec &spec, const PointFn &fn) const
{
    const auto start = std::chrono::steady_clock::now();

    SweepResult result;
    result.spec = spec;
    const auto grid = spec.expand();
    result.points.resize(grid.size());

    // One slot per grid cell: workers write disjoint entries, so
    // the fold needs no ordering and no locks.
    if (threads() <= 1 || grid.size() <= 1) {
        for (const auto &pt : grid)
            result.points[pt.index] = fn(pt);
    } else {
        sim::ThreadPool pool(threads());
        for (const auto &pt : grid)
            pool.submit([&fn, &pt, &result] {
                result.points[pt.index] = fn(pt);
            });
        pool.wait();
    }

    // The engine's contract: same extras schema (keys, in order) at
    // every point, so CSV columns label every row correctly.
    const auto &first = result.points.front();
    for (const auto &p : result.points) {
        if (p.extras.size() != first.extras.size())
            sim::fatal("SweepRunner: point '%s' reports %zu extra "
                       "metrics, point '%s' reports %zu",
                       p.point.label().c_str(), p.extras.size(),
                       first.point.label().c_str(),
                       first.extras.size());
        for (std::size_t i = 0; i < p.extras.size(); ++i)
            if (p.extras[i].first != first.extras[i].first)
                sim::fatal("SweepRunner: point '%s' extra #%zu is "
                           "'%s', point '%s' has '%s'",
                           p.point.label().c_str(), i,
                           p.extras[i].first.c_str(),
                           first.point.label().c_str(),
                           first.extras[i].first.c_str());
    }

    result.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return result;
}

} // namespace aw::exp
