#include "cluster/fleet.hh"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "analysis/observers.hh"
#include "cluster/balancer.hh"
#include "cap/powercap.hh"
#include "cstate/governors.hh"
#include "freq/policies.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace aw::cluster {

namespace {

/**
 * Structure-of-arrays snapshot of the balancer's per-server state.
 * Keeping the hot columns (outstanding counts, last-arrival ticks,
 * routed totals) in flat parallel vectors keeps the per-decision
 * loop cache-friendly at O(10k) servers, where most entries belong
 * to idle servers the routing policy skips over.
 */
struct LbState
{
    explicit LbState(unsigned k)
        : outstanding(k, 0), lastArrival(k, 0), routed(k, 0), gaps(k)
    {}

    std::vector<unsigned> outstanding;
    std::vector<sim::Tick> lastArrival;
    std::vector<std::uint64_t> routed;

    /** Per-server inter-arrival splits of the offered stream. */
    std::vector<std::vector<sim::Tick>> gaps;
};

/** One request in flight in the balancer's occupancy estimate. */
struct InFlight
{
    sim::Tick done;
    std::size_t server;

    bool operator>(const InFlight &o) const { return done > o.done; }
};

using InFlightHeap =
    std::priority_queue<InFlight, std::vector<InFlight>,
                        std::greater<InFlight>>;

} // namespace

double
deepIdleShare(const cstate::ResidencySnapshot &r)
{
    return r.shareOf(cstate::CStateId::C6) +
           r.shareOf(cstate::CStateId::C6A) +
           r.shareOf(cstate::CStateId::C6AE);
}

FleetSim::FleetSim(FleetConfig cfg, workload::WorkloadProfile profile,
                   double total_qps)
    : _cfg(std::move(cfg)), _profile(std::move(profile)),
      _totalQps(total_qps)
{
    if (_cfg.servers == 0)
        sim::fatal("FleetSim: need at least one server");
    if (total_qps <= 0.0)
        sim::fatal("FleetSim: offered load must be positive");
    if (!std::isfinite(_cfg.epochSeconds) || _cfg.epochSeconds < 0.0)
        sim::fatal("FleetSim: epoch length must be a finite "
                   "non-negative number of seconds (got %g)",
                   _cfg.epochSeconds);
    // Validate the policy and governor names up front, not at
    // run() time. Fleet servers are driven by centrally dispatched
    // per-server splits, so clairvoyant governors have no per-core
    // foreknowledge to draw on.
    makeRoutingPolicy(_cfg.routing, packCapacity());
    if (cstate::makeGovernor(_cfg.server.governor,
                             _cfg.server.cstates)
            ->needsOracle()) {
        sim::fatal("FleetSim: governor '%s' is single-server only "
                   "(fleet dispatch has no per-core arrival "
                   "foreknowledge)",
                   _cfg.server.governor.c_str());
    }
    _cfg.server.pstates.validate();
    if (!_cfg.server.freqPolicy.empty())
        freq::makeFreqPolicy(_cfg.server.freqPolicy,
                             freq::PStateLadder(_cfg.server.pstates));
    _cfg.server.cap.validate();
}

void
FleetSim::setArrivalTrace(workload::ArrivalTrace trace)
{
    if (trace.empty())
        sim::fatal("FleetSim: empty arrival trace");
    _trace = std::move(trace);
}

void
FleetSim::enableTimeline(const analysis::TimelineConfig &cfg)
{
    _timeline = cfg;
    _timeline->retainLatencies = true; // pooled per-interval p99
}

void
FleetSim::enableRequestTrace(const analysis::TraceConfig &cfg)
{
    if (cfg.capacity == 0)
        sim::fatal("FleetSim: trace ring capacity must be > 0");
    _requestTrace = cfg;
}

unsigned
FleetSim::packCapacity() const
{
    if (_cfg.packCapacity > 0)
        return _cfg.packCapacity;
    return std::max(1u, _cfg.server.cores / 2);
}

std::unique_ptr<workload::ArrivalProcess>
FleetSim::makeOfferedStream() const
{
    std::unique_ptr<workload::ArrivalProcess> base;
    if (_trace) {
        base = std::make_unique<workload::TraceArrivals>(
            *_trace, /*loop=*/true);
    } else {
        base = _profile.makeArrivals(_totalQps);
    }
    if (_cfg.schedule.isFlat())
        return base;
    return std::make_unique<DiurnalArrivals>(std::move(base),
                                             _cfg.schedule);
}

FleetResult
FleetSim::run(sim::Tick duration, sim::Tick warmup)
{
    const sim::Tick horizon = duration + warmup;
    const unsigned K = _cfg.servers;

    // ------------------------------------------------- balancer pass
    // Split the offered stream into per-server gap sequences. The
    // balancer keeps an occupancy estimate per server: each routed
    // request holds its server for one drawn service time, the same
    // outstanding-work signal real L7 balancers route on. The
    // estimate lives entirely on the balancer side (it never reads
    // live server state), which is what makes the per-server phase
    // below embarrassingly parallel. Policies that never read
    // occupancy (round-robin, random) skip the estimate altogether:
    // est_rng is its own stream and the outstanding counts are read
    // only through the view, so no routing decision can tell.
    auto offered = makeOfferedStream();
    auto policy = makeRoutingPolicy(_cfg.routing, packCapacity());
    const bool track_occupancy = policy->readsOccupancy();
    sim::Rng lb_rng(sim::deriveSeed(_cfg.seed, K));
    sim::Rng est_rng(sim::deriveSeed(_cfg.seed, K + 1));

    // The pool exists before the balancer pass so that, while the
    // balancer routes, a worker can draw the occupancy estimates
    // ahead: est_rng is private and the k-th routed request always
    // takes its k-th draw, so no routing decision can change that
    // sequence. The producer is joined before the servers run.
    const unsigned workers = std::min(
        sim::ThreadPool::resolveThreads(_cfg.fleetThreads), K);
    std::optional<sim::ThreadPool> pool;
    if (workers > 1)
        pool.emplace(workers);
    std::optional<EstimateStream> estimates;
    if (track_occupancy)
        estimates.emplace(_profile.service(), est_rng,
                          pool ? &*pool : nullptr);

    LbState lb(K);

    const sim::Tick epoch = _cfg.epochSeconds > 0.0
                                ? sim::fromSec(_cfg.epochSeconds)
                                : 0;

    // Power-budget redistribution state. Every server starts the
    // run at its nominal cap; at each epoch boundary the planner
    // re-deals the fleet total from the balancer's own routing
    // counts of the epoch just ended (one-epoch lag), and only
    // budget *changes* append a schedule span. All of this is a
    // pure function of the serial balancer pass, so schedules --
    // and therefore every per-server run -- are bit-identical at
    // any fleetThreads.
    const bool cap_on = _cfg.server.cap.capWatts > 0.0;
    const bool redistribute =
        cap_on && _cfg.capRedistribution && epoch > 0;
    std::vector<power::Watts> cur_budget;
    if (cap_on)
        cur_budget.assign(K, _cfg.server.cap.capWatts);
    std::optional<cap::FleetBudgetPlanner> planner;
    std::vector<std::vector<cap::BudgetSpan>> cap_spans;
    std::vector<std::uint64_t> epoch_routed;
    if (redistribute) {
        planner.emplace(_cfg.server.cap.capWatts, K);
        cap_spans.resize(K);
        epoch_routed.assign(K, 0);
    }

    // The under-capacity index only pays for itself when someone
    // asks the question it answers. Headroom routing estimates one
    // ladder-top busy core of draw per outstanding request.
    const freq::PStateLadder ladder(_cfg.server.pstates);
    BalancerView view(lb.outstanding,
                      _cfg.routing == "pack-first" ? packCapacity()
                                                   : 0,
                      cap_on ? &cur_budget : nullptr,
                      ladder.activePower(ladder.top()));
    InFlightHeap in_flight;

    // Completion estimates are published by draining the heap up to
    // a time bound. The pop order for a given bound sequence is the
    // heap's, so draining to an epoch boundary first and to the
    // decision time after pops the exact entries, in the exact
    // order, that draining straight to the decision time would --
    // epoch length cannot change any routing decision (byte
    // identity at any epoch; pinned by tests).
    const auto drainCompletions = [&](sim::Tick upto) {
        while (!in_flight.empty() && in_flight.top().done <= upto) {
            const std::size_t s = in_flight.top().server;
            --lb.outstanding[s];
            view.onCompleted(s);
            in_flight.pop();
        }
    };
    sim::Tick next_epoch = epoch > 0 ? epoch : sim::kMaxTick;

    // Routing decisions of the measured window, for the trace
    // artifact: keep-newest ring like the tracer's spans.
    std::vector<analysis::RoutingDecision> decisions;
    std::uint64_t decisions_emitted = 0;
    if (_requestTrace)
        decisions.resize(_requestTrace->capacity);

    sim::Tick now = 0;
    std::uint64_t total_routed = 0;
    while (true) {
        const sim::Tick gap = offered->nextGap(lb_rng);
        if (gap >= sim::kMaxTick - now)
            break; // finite stream ended
        now += gap;
        if (now >= horizon)
            break;

        while (epoch > 0 && now >= next_epoch) {
            drainCompletions(next_epoch);
            if (redistribute) {
                const auto budgets =
                    planner->epochBudgets(epoch_routed);
                for (unsigned s = 0; s < K; ++s) {
                    if (budgets[s] != cur_budget[s]) {
                        cap_spans[s].push_back(
                            cap::BudgetSpan{next_epoch, budgets[s]});
                        cur_budget[s] = budgets[s];
                    }
                }
                std::fill(epoch_routed.begin(), epoch_routed.end(),
                          0);
            }
            if (next_epoch >= sim::kMaxTick - epoch)
                next_epoch = sim::kMaxTick;
            else
                next_epoch += epoch;
        }
        drainCompletions(now);

        const std::size_t target = policy->route(view, lb_rng);
        if (target >= K)
            sim::panic("FleetSim: policy '%s' routed to server %zu "
                       "of %u",
                       policy->name(), target, K);
        lb.gaps[target].push_back(now - lb.lastArrival[target]);
        lb.lastArrival[target] = now;
        ++lb.routed[target];
        ++total_routed;
        if (redistribute)
            ++epoch_routed[target];
        if (_requestTrace && now >= warmup) {
            auto &slot =
                decisions[decisions_emitted % decisions.size()];
            slot.at = now;
            slot.server = static_cast<std::uint32_t>(target);
            ++decisions_emitted;
        }

        if (track_occupancy) {
            in_flight.push(InFlight{now + estimates->next(), target});
            ++lb.outstanding[target];
            view.onRouted(target);
        }
    }
    estimates.reset(); // join the producer: the servers need the pool

    // ---------------------------------------------- per-server runs
    FleetResult fr;
    fr.routingName = policy->name();
    fr.configName = _cfg.server.name;
    fr.workloadName = _profile.name();
    fr.servers = K;
    fr.offeredQps = _totalQps;
    fr.routed = total_routed;
    fr.routedPerServer = lb.routed;

    // Homogeneous-idle fast path: every server the balancer never
    // routed to sees the same input (one never-firing gap) and, as
    // no per-server RNG is ever drawn on that path, evolves
    // identically regardless of its derived seed -- so one idle
    // reference run stands in for all of them. At warehouse scale
    // under pack-first almost the whole fleet is never-routed, and
    // the K-server point costs O(busy servers), not O(K).
    std::size_t idle_ref = K; // index of the reference, if any
    std::vector<bool> reuse_ref(K, false);
    std::vector<unsigned> to_run;
    to_run.reserve(K);
    for (unsigned i = 0; i < K; ++i) {
        if (lb.gaps[i].empty())
            ++fr.neverRouted;
        if (_cfg.idleFastPath && lb.gaps[i].empty() &&
            idle_ref < K) {
            reuse_ref[i] = true;
            continue;
        }
        if (_cfg.idleFastPath && lb.gaps[i].empty())
            idle_ref = i;
        to_run.push_back(i);
    }

    // Each run writes only its own index of these, so the worker
    // partition needs no locks and no ordering; determinism comes
    // from the in-order fold below. The observer series are sized
    // only when enabled: one TimelineSeries is ~19 KB, so K empty
    // ones would dominate a 10k-server run's memory.
    fr.perServer.resize(K);
    std::vector<sim::PercentileTracker> latencies(K);
    std::vector<analysis::TimelineSeries> timelines(_timeline ? K : 0);
    std::vector<analysis::TraceSeries> traces(_requestTrace ? K : 0);
    const auto runServer = [&](unsigned i) {
        server::ServerConfig scfg = _cfg.server;
        scfg.seed = sim::deriveSeed(_cfg.seed, i);

        // A server that received no traffic still burns idle power:
        // drive it with a single never-arriving gap.
        std::vector<sim::Tick> g = std::move(lb.gaps[i]);
        if (g.empty())
            g.push_back(sim::kMaxTick);
        server::ServerSim srv(
            scfg, _profile,
            std::make_unique<workload::TraceArrivals>(
                workload::ArrivalTrace(std::move(g)),
                /*loop=*/false));
        // Never-routed servers all carry the identical base-budget
        // schedule (zero demand every epoch), which is what keeps
        // the idle-reference reuse below bit-identical.
        if (redistribute && !cap_spans[i].empty())
            srv.setCapSchedule(cap_spans[i]);
        analysis::ServerTelemetry telemetry(_timeline, _requestTrace,
                                            scfg.cores);
        telemetry.attach(srv);
        fr.perServer[i] = srv.run(duration, warmup);
        if (telemetry.recorder)
            timelines[i] = std::move(*telemetry.recorder).series();
        if (telemetry.tracer)
            traces[i] = std::move(*telemetry.tracer).series();
        latencies[i] = srv.takeLatencySamples();
    };

    if (pool) {
        for (const unsigned i : to_run)
            pool->submit([&runServer, i] { runServer(i); });
        pool->wait();
    } else {
        for (const unsigned i : to_run)
            runServer(i);
    }
    std::size_t samples = 0;
    for (unsigned i = 0; i < K; ++i) {
        if (reuse_ref[i]) {
            fr.perServer[i] = fr.perServer[idle_ref];
            latencies[i] = latencies[idle_ref];
            if (_timeline)
                timelines[i] = timelines[idle_ref];
            if (_requestTrace)
                traces[i] = traces[idle_ref];
        }
        samples += latencies[i].count();
    }

    // Fold in strict server-index order: the floating-point op
    // sequence (and thus every emitted byte) is independent of how
    // the runs were scheduled. The pooled mean sums each server's
    // samples in storage order, which is ascending:
    // takeLatencySamples() sorted them in the worker. Each server's
    // samples are freed as soon as they are pooled.
    sim::PercentileTracker pooled;
    pooled.reserve(samples);
    for (unsigned i = 0; i < K; ++i) {
        const server::RunResult &r = fr.perServer[i];
        pooled.merge(std::exchange(latencies[i], {}));

        fr.window = r.window;
        fr.requests += r.requests;
        fr.events += r.events;
        fr.fleetPower += r.packagePower;
        fr.capThrottleShare += r.capThrottleShare / K;
        fr.forcedIdleNaps += r.forcedIdleNaps;
        fr.maxTempC = std::max(fr.maxTempC, r.maxTempC);
        const double deep = deepIdleShare(r.residency);
        if (i == 0) {
            fr.minServerDeepShare = fr.maxServerDeepShare = deep;
        } else {
            fr.minServerDeepShare =
                std::min(fr.minServerDeepShare, deep);
            fr.maxServerDeepShare =
                std::max(fr.maxServerDeepShare, deep);
        }
        for (std::size_t s = 0; s < cstate::kNumCStates; ++s) {
            fr.residency.share[s] += r.residency.share[s] / K;
            fr.residency.entries[s] += r.residency.entries[s];
        }
    }
    fr.residency.window = fr.window;
    if (_timeline)
        fr.timeline = analysis::foldTimelines(timelines);
    if (_requestTrace) {
        fr.trace = analysis::mergeTraces(traces);
        // Attach the balancer's measured-window decisions, oldest
        // retained first (the ring may have wrapped).
        const std::uint64_t kept = std::min<std::uint64_t>(
            decisions_emitted, decisions.size());
        fr.trace->routingEmitted = decisions_emitted;
        fr.trace->routingDropped = decisions_emitted - kept;
        fr.trace->routing.reserve(kept);
        for (std::uint64_t k = 0; k < kept; ++k) {
            const std::uint64_t first = decisions_emitted - kept;
            fr.trace->routing.push_back(
                decisions[(first + k) % decisions.size()]);
        }
    }

    // ------------------------------------------------- aggregation
    fr.achievedQps = fr.window > 0
                         ? fr.requests / sim::toSec(fr.window)
                         : 0.0;
    fr.fleetEnergy = fr.fleetPower * sim::toSec(fr.window);
    fr.energyPerRequestMj =
        fr.requests > 0 ? 1e3 * fr.fleetEnergy / fr.requests : 0.0;
    fr.deepIdleShare = deepIdleShare(fr.residency);
    if (!pooled.empty()) {
        fr.avgLatencyUs = pooled.mean();
        const auto tail = pooled.selectPercentiles({99.0, 99.9});
        fr.p99LatencyUs = tail[0];
        fr.p999LatencyUs = tail[1];
    }
    if (total_routed > 0) {
        const auto busiest = *std::max_element(lb.routed.begin(),
                                               lb.routed.end());
        fr.busiestShareOfLoad =
            static_cast<double>(busiest) / total_routed;
    }
    return fr;
}

FleetResult
FleetSim::run()
{
    // Same sizing rule as ServerSim::run(), but for the fleet-wide
    // request target; stretch to cover at least one schedule period
    // so diurnal runs average a whole cycle.
    const double target_requests = 60e3;
    double sec = std::max(1.0, target_requests / _totalQps);
    if (!_cfg.schedule.isFlat())
        sec = std::max(sec, sim::toSec(_cfg.schedule.period()));
    const sim::Tick duration = sim::fromSec(sec);
    return run(duration, duration / 10);
}

} // namespace aw::cluster
