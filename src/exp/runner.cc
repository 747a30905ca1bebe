#include "exp/runner.hh"

#include <chrono>
#include <deque>

#include "analysis/observers.hh"
#include "cluster/fleet.hh"
#include "exp/axis.hh"
#include "server/server_sim.hh"
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
    const auto &profile = cachedProfile(pt.workload);
    cluster::FleetConfig fc{.server = cachedConfig(pt.config)};
    auto &cfg = fc.server;
    if (spec.cores > 0)
        cfg.cores = spec.cores;
    for (const Axis &a : axes())
        if (a.apply && a.shown(pt))
            a.apply(pt, fc);
    if (spec.thermal)
        cfg.cap.thermalEnabled = true;
    if (!spec.dispatch.empty())
        cfg.dispatch = server::dispatchPolicyByName(spec.dispatch);
    // Cap metrics ride the extras channel only when the spec engaged
    // the subsystem, so no-axis artifacts keep their pre-cap schema
    // byte for byte.
    const bool cap_metrics = spec.thermal || axis("cap_w").swept(spec);

    const sim::Tick duration =
        spec.seconds > 0.0 ? sim::fromSec(spec.seconds) : 0;
    const sim::Tick warmup =
        spec.warmupSeconds >= 0.0 ? sim::fromSec(spec.warmupSeconds)
                                  : duration / 10;
    std::optional<analysis::TimelineConfig> timeline;
    if (spec.timelineIntervalSeconds > 0.0) {
        timeline.emplace();
        timeline->intervalSeconds = spec.timelineIntervalSeconds;
    }
    std::optional<analysis::TraceConfig> trace;
    if (spec.traceRequests)
        trace.emplace();

    PointResult res;
    res.point = pt;

    if (pt.servers > 0) {
        // Fleet runs model cpuidle's tick re-selection so spare
        // servers reach deep idle (matches awsim's fleet mode).
        cfg.idlePromotion = true;
        fc.seed = pt.seed;
        fc.fleetThreads = spec.fleetThreads;
        fc.epochSeconds = spec.epochSeconds;
        cluster::FleetSim fleet(fc, profile, pt.qps);
        if (timeline)
            fleet.enableTimeline(*timeline);
        if (trace)
            fleet.enableRequestTrace(*trace);
        auto r = duration > 0 ? fleet.run(duration, warmup)
                              : fleet.run();
        res.timeline = std::move(r.timeline);
        if (r.trace) {
            // Attribute and drop the raw spans: a sweep keeps one
            // attribution per point, not millions of span records.
            res.trace = analysis::attributeTail(*r.trace);
            res.p999LatencyUs = r.p999LatencyUs;
        }
        res.events = r.events;
        res.requests = r.requests;
        res.achievedQps = r.achievedQps;
        res.windowSeconds = sim::toSec(r.window);
        res.powerW = r.fleetPower;
        res.energyPerRequestMj = r.energyPerRequestMj;
        res.avgLatencyUs = r.avgLatencyUs;
        res.p99LatencyUs = r.p99LatencyUs;
        res.deepIdleShare = r.deepIdleShare;
        res.minServerDeepShare = r.minServerDeepShare;
        res.maxServerDeepShare = r.maxServerDeepShare;
        res.busiestShareOfLoad = r.busiestShareOfLoad;
        res.residency = r.residency.share;
        if (cap_metrics) {
            res.extras.emplace_back("cap_throttle_share",
                                    r.capThrottleShare);
            res.extras.emplace_back("max_temp_c", r.maxTempC);
        }
    } else {
        cfg.seed = pt.seed;
        server::ServerSim srv(cfg, profile, pt.qps);
        analysis::ServerTelemetry telemetry(timeline, trace, cfg.cores);
        telemetry.attach(srv);
        const auto r = duration > 0 ? srv.run(duration, warmup)
                                    : srv.run();
        if (telemetry.recorder)
            res.timeline = telemetry.recorder->series();
        if (telemetry.tracer) {
            res.trace =
                analysis::attributeTail(telemetry.tracer->series());
            res.p999LatencyUs = r.p999LatencyUs;
        }
        res.events = r.events;
        res.requests = r.requests;
        res.achievedQps = r.achievedQps;
        res.windowSeconds = sim::toSec(r.window);
        res.powerW = r.packagePower;
        res.energyPerRequestMj =
            r.requests > 0 ? 1e3 * r.packagePower *
                                 sim::toSec(r.window) / r.requests
                           : 0.0;
        res.avgLatencyUs = r.avgLatencyUs;
        res.p99LatencyUs = r.p99LatencyUs;
        const double deep = cluster::deepIdleShare(r.residency);
        res.deepIdleShare = deep;
        res.minServerDeepShare = deep;
        res.maxServerDeepShare = deep;
        res.busiestShareOfLoad = 1.0;
        res.residency = r.residency.share;
        if (cap_metrics) {
            res.extras.emplace_back("cap_throttle_share",
                                    r.capThrottleShare);
            res.extras.emplace_back("max_temp_c", r.maxTempC);
        }
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
        ThreadPool pool(threads());
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
