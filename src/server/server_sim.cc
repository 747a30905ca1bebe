#include "server/server_sim.hh"

#include <algorithm>

#include "cstate/governors.hh"
#include "freq/policies.hh"
#include "freq/qos.hh"
#include "sim/logging.hh"

namespace aw::server {

ServerSim::ServerSim(ServerConfig cfg,
                     workload::WorkloadProfile profile,
                     double total_qps)
    : _cfg(std::move(cfg)), _profile(std::move(profile)),
      _totalQps(total_qps), _package(_cfg.packageParams)
{
    if (total_qps <= 0.0)
        sim::fatal("ServerSim: offered load must be positive");

    const bool packing = _cfg.dispatch == DispatchPolicy::Packing;
    buildCores(packing ? 0.0 : total_qps / _cfg.cores);
    if (packing) {
        _dispatchArrivals = _profile.makeArrivals(total_qps);
        _dispatchRng = std::make_unique<sim::Rng>(_cfg.seed + 999331);
    }
}

ServerSim::ServerSim(ServerConfig cfg,
                     workload::WorkloadProfile profile,
                     std::unique_ptr<workload::ArrivalProcess> arrivals)
    : _cfg(std::move(cfg)), _profile(std::move(profile)),
      _totalQps(arrivals ? arrivals->ratePerSec() : 0.0),
      _dispatchArrivals(std::move(arrivals)),
      _dispatchRng(std::make_unique<sim::Rng>(_cfg.seed + 999331)),
      _package(_cfg.packageParams)
{
    if (!_dispatchArrivals)
        sim::fatal("ServerSim: null arrival stream");
    // All requests flow through the central dispatcher, so cores do
    // not generate their own arrivals.
    buildCores(0.0);
}

std::size_t
ServerSim::engineBytes() const
{
    std::size_t bytes = _dispatchRng ? sizeof(sim::Rng) : 0;
    for (const auto &core : _cores)
        bytes += core->engineBytes();
    return bytes;
}

void
ServerSim::buildCores(double per_core_rate)
{
    if (_cfg.cores == 0)
        sim::fatal("ServerSim: need at least one core");

    // The core model is a shared immutable constant set; rebuilding
    // it per server (it was a make_unique here) only re-derived the
    // same numbers, which a sweep pays thousands of times.
    _aw = &core::AwCoreModel::canonical();

    // Keep the package model's PC0 power consistent with the
    // configured uncore power.
    if (_cfg.packageCStatesEnabled &&
        _cfg.packageParams.uncorePc0 != _cfg.uncorePower) {
        _cfg.packageParams.uncorePc0 = _cfg.uncorePower;
        _package = PackageCStateModel(_cfg.packageParams);
    }

    // DVFS / PM-QoS resolution happens before the cores (which hold
    // a reference to _cfg) are constructed. A latency SLO filters
    // the enabled idle states down to wakes its budget absorbs; the
    // cores' shared tables then carry its frequency floor, and an
    // ungoverned Pn pin the service budget cannot carry is refused.
    _cfg.pstates.validate();
    const freq::PStateLadder ladder(_cfg.pstates);
    if (_cfg.sloUs > 0.0) {
        _cfg.cstates =
            freq::LatencyQoS{_cfg.sloUs}.admissibleStates(_cfg.cstates);
    }
    _tables = std::make_unique<const CoreTables>(_cfg, ladder, *_aw,
                                                 _profile);
    if (_cfg.runAtPn && _cfg.freqPolicy.empty() && _tables->minLevel > 0)
        _cfg.runAtPn = false;

    // Power cap + thermal coupling: validated here, armed in run().
    // The controller and thermal model exist only when enabled, so
    // the disabled path schedules no control events and every
    // artifact stays byte-identical.
    _cfg.cap.validate();
    if (_cfg.cap.enabled()) {
        _capCtl = std::make_unique<cap::PowerCapController>(
            _cfg.cap, ladder.count());
        _capDecision = _capCtl->decision();
        if (_cfg.cap.thermalEnabled) {
            _thermal = std::make_unique<cap::RcThermalModel>(
                _cfg.cap.thermal, 0);
        }
    }

    // One prototype per governance axis per server, validated here
    // (bad specs die on construction, not mid-run); each core clones
    // private instances so policy state never leaks across cores.
    const auto governor_proto =
        cstate::makeGovernor(_cfg.governor, _cfg.cstates);
    std::unique_ptr<freq::FreqPolicy> freq_proto;
    if (!_cfg.freqPolicy.empty()) {
        freq_proto = freq::makeFreqPolicy(_cfg.freqPolicy, ladder);
    }

    _latency.reserve(1 << 16);
    _coreIdle.assign(_cfg.cores, 0);
    _coreDeep.assign(_cfg.cores, 0);
    for (unsigned i = 0; i < _cfg.cores; ++i) {
        _cores.push_back(std::make_unique<CoreSim>(
            _sim, _cfg, *_tables, *governor_proto, freq_proto.get(), *_aw,
            _profile, per_core_rate, i,
            [this, i](const workload::Request &req) {
                const double us = sim::toUs(req.serverLatency());
                _latency.add(us);
                if (_observer)
                    _observer->onComplete(i, req.id, _sim.now(), us);
            }));
        if (_cfg.packageCStatesEnabled) {
            _cores.back()->setPackageModel(&_package);
            _cores.back()->setStateChangeHook(
                [this, i]() { onCoreStateChange(i); });
        }
    }
    _uncoreMeter.setPower(0, _cfg.uncorePower);
}

void
ServerSim::setObserver(TelemetryObserver *observer)
{
    _observer = observer;
    for (auto &core : _cores)
        core->setObserver(observer);
}

void
ServerSim::setCapSchedule(std::vector<cap::BudgetSpan> spans)
{
    if (!_capCtl)
        sim::fatal("ServerSim: cap schedule needs cfg.cap enabled");
    for (std::size_t i = 1; i < spans.size(); ++i) {
        if (spans[i].start < spans[i - 1].start)
            sim::fatal("ServerSim: cap schedule spans must be in "
                       "ascending start order");
    }
    _capSchedule = std::move(spans);
    _capSpan = 0;
}

void
ServerSim::scheduleCapControl()
{
    _sim.scheduleIn(_cfg.cap.controlInterval,
                    [this]() { onCapControl(); });
}

void
ServerSim::onCapControl()
{
    const sim::Tick now = _sim.now();

    // Measured interval power: delta of the summed core meters
    // (the simulator's RAPL counters) plus the piecewise-constant
    // uncore draw.
    power::Joules joules = 0.0;
    for (auto &core : _cores)
        joules += core->energy();
    if (joules < _capLastEnergy)
        _capLastEnergy = joules; // a stats reset restarted meters
    const double dt = sim::toSec(now - _capLastTick);
    const power::Watts uncore = _cfg.packageCStatesEnabled
                                    ? _package.uncorePower()
                                    : _cfg.uncorePower;
    const power::Watts measured =
        dt > 0.0 ? (joules - _capLastEnergy) / dt + uncore : uncore;
    _capLastEnergy = joules;
    _capLastTick = now;

    // Fleet budget redistribution: advance to the span in effect.
    while (_capSpan < _capSchedule.size() &&
           _capSchedule[_capSpan].start <= now) {
        _capCtl->setBudget(_capSchedule[_capSpan].watts);
        ++_capSpan;
    }

    double temp = 0.0;
    if (_thermal) {
        temp = _thermal->advance(now, measured);
        if (temp > _maxTempC)
            _maxTempC = temp;
        if (_observer)
            _observer->onTemperature(now, temp);
    }

    const cap::ThrottleDecision d = _capCtl->step(measured, temp);
    if (d != _capDecision) {
        _capDecision = d;
        const sim::Tick period = _cfg.cap.napPeriod;
        const sim::Tick nap_len = static_cast<sim::Tick>(
            d.forcedIdleShare * static_cast<double>(period) + 0.5);
        for (auto &core : _cores)
            core->setCapState(d.levelCap, nap_len, period);
        if (_capThrottledNow != d.throttled) {
            if (_capThrottledNow)
                _capThrottledTicks += now - _capThrottleSince;
            _capThrottleSince = now;
            _capThrottledNow = d.throttled;
        }
        if (_observer) {
            _observer->onCapThrottle(now, d.levelCap,
                                     d.forcedIdleShare, d.throttled);
        }
    }
    scheduleCapControl();
}

std::size_t
ServerSim::pickPackingTarget()
{
    // 1) Lowest-numbered awake core with queue headroom.
    for (std::size_t i = 0; i < _cores.size(); ++i) {
        const CoreSim &core = *_cores[i];
        const bool awake = core.mode() != CoreSim::Mode::Idle;
        if (awake && core.queueLength() < _cfg.packingQueueLimit)
            return i;
    }
    // 2) Otherwise wake the shallowest-sleeping idle core.
    std::size_t best = _cores.size();
    int best_depth = 0;
    for (std::size_t i = 0; i < _cores.size(); ++i) {
        const CoreSim &core = *_cores[i];
        if (core.mode() != CoreSim::Mode::Idle)
            continue;
        const int depth = core.idleStateDepth();
        if (best == _cores.size() || depth < best_depth) {
            best = i;
            best_depth = depth;
        }
    }
    if (best < _cores.size())
        return best;
    // 3) Everyone is awake and saturated: shortest queue.
    std::size_t shortest = 0;
    for (std::size_t i = 1; i < _cores.size(); ++i) {
        if (_cores[i]->queueLength() <
            _cores[shortest]->queueLength())
            shortest = i;
    }
    return shortest;
}

void
ServerSim::scheduleNextDispatch()
{
    const sim::Tick gap = _dispatchArrivals->nextGap(*_dispatchRng);
    // A finite (non-looping) trace signals its end with kMaxTick.
    if (gap >= sim::kMaxTick - _sim.now())
        return;
    _sim.scheduleIn(gap, [this]() {
        workload::Request req;
        req.arrival = _sim.now();
        req.demand = _profile.service().draw(*_dispatchRng);
        const std::size_t target =
            _cfg.dispatch == DispatchPolicy::Packing
                ? pickPackingTarget()
                : _rrNext++ % _cores.size();
        const std::uint64_t id =
            _cores[target]->inject(std::move(req));
        if (_observer) {
            _observer->onRequestDispatch(
                static_cast<unsigned>(target), id, _sim.now());
        }
        scheduleNextDispatch();
    });
}

void
ServerSim::onCoreStateChange(std::size_t changed)
{
    // Refresh only the changed core's contribution; the population
    // counts answer the all-idle/all-deep questions in O(1).
    const CoreSim &core = *_cores[changed];
    const bool idle = core.mode() == CoreSim::Mode::Idle &&
                      core.idleState() != cstate::CStateId::C0;
    const bool deep =
        idle && PackageCStateModel::qualifiesPc6(core.idleState());
    if (idle != static_cast<bool>(_coreIdle[changed])) {
        _coreIdle[changed] = idle;
        _numIdle += idle ? 1 : -1;
    }
    if (deep != static_cast<bool>(_coreDeep[changed])) {
        _coreDeep[changed] = deep;
        _numDeep += deep ? 1 : -1;
    }
    const bool all_idle = _numIdle == _cores.size();
    const bool all_deep = _numDeep == _cores.size();
    const PkgCState before = _package.state();
    const PkgCState now_state =
        _package.update(_sim.now(), all_idle, all_deep);
    if (now_state != before || all_deep) {
        _uncoreMeter.setPower(_sim.now(), _package.uncorePower());
        if (_observer)
            _observer->onUncorePower(_sim.now(),
                                     _package.uncorePower());
    }
    // PC6 promotion happens after a quiet hysteresis interval with
    // no state-change events, so arm a timer for it.
    _sim.cancel(_pkgPromotion);
    _pkgPromotion = sim::kInvalidEventId;
    if (all_idle && all_deep && now_state != PkgCState::PC6) {
        _pkgPromotion = _sim.scheduleIn(
            _cfg.packageParams.pc6Hysteresis + 1,
            [this, changed]() { onCoreStateChange(changed); });
    }
}

RunResult
ServerSim::run(sim::Tick duration, sim::Tick warmup)
{
    for (auto &core : _cores)
        core->start();
    if (_dispatchArrivals)
        scheduleNextDispatch();
    if (_capCtl) {
        _capLastTick = _sim.now();
        _capThrottleSince = _sim.now();
        scheduleCapControl();
    }

    // Warmup: run unmeasured, then reset all statistics. The
    // observer is told first so the per-core resetStats state
    // re-announcements land inside its fresh window.
    if (warmup > 0)
        _sim.run(warmup);
    if (_observer)
        _observer->onMeasurementStart(_sim.now());
    for (auto &core : _cores)
        core->resetStats();
    _latency.reset();
    _package.reset(_sim.now());
    _uncoreMeter.reset(_sim.now());
    if (_observer) {
        _observer->onUncorePower(_sim.now(),
                                 _cfg.packageCStatesEnabled
                                     ? _package.uncorePower()
                                     : _cfg.uncorePower);
    }
    if (_capCtl) {
        // Re-anchor the cap accounting on the fresh meters and
        // re-announce the standing decision into the new window
        // (mirrors the per-core operating-point re-announcement).
        _capLastEnergy = 0.0;
        _capLastTick = _sim.now();
        _capThrottledTicks = 0;
        _capThrottleSince = _sim.now();
        _maxTempC = _thermal ? _thermal->temperature() : 0.0;
        if (_observer) {
            _observer->onCapThrottle(_sim.now(),
                                     _capDecision.levelCap,
                                     _capDecision.forcedIdleShare,
                                     _capDecision.throttled);
            if (_thermal) {
                _observer->onTemperature(_sim.now(),
                                         _thermal->temperature());
            }
        }
    }
    _statsStart = _sim.now();

    const sim::Tick start = _sim.now();
    _sim.run(start + duration);
    const sim::Tick end = _sim.now();
    const sim::Tick window = end - start;
    _package.noteStateSince(end);
    if (_observer)
        _observer->onMeasurementEnd(end);

    RunResult r;
    r.configName = _cfg.name;
    r.workloadName = _profile.name();
    r.offeredQps = _totalQps;
    r.window = window;
    r.events = _sim.eventsExecuted();

    // Aggregate residency: cores are homogeneous, so the core-time
    // weighted aggregate is the mean of the per-core shares.
    cstate::ResidencySnapshot agg;
    agg.window = window;
    for (auto &core : _cores) {
        const auto snap = core->residency();
        for (std::size_t i = 0; i < cstate::kNumCStates; ++i) {
            agg.share[i] += snap.share[i] / _cores.size();
            agg.entries[i] += snap.entries[i];
        }
        r.coreEnergy += core->energy();
        r.avgCorePower += core->averagePower() / _cores.size();
        r.requests += core->requestsCompleted();
        r.mispredictedEntries += core->mispredictedEntries();
        r.forcedIdleNaps += core->forcedNaps();
        r.freqTransitions += core->freqTransitions();
        r.freqTransitionEnergyJ += core->freqTransitionEnergy();
    }
    r.residency = agg;

    if (_capCtl) {
        if (_capThrottledNow) {
            _capThrottledTicks += end - _capThrottleSince;
            _capThrottleSince = end;
        }
        r.capThrottleShare =
            window > 0 ? static_cast<double>(_capThrottledTicks) /
                             static_cast<double>(window)
                       : 0.0;
        r.maxTempC = _maxTempC;
    }

    if (_cfg.packageCStatesEnabled) {
        r.avgUncorePower =
            _uncoreMeter.averagePower(end, _statsStart);
        for (std::size_t i = 0; i < kNumPkgCStates; ++i) {
            r.pkgResidency[i] = _package.residencyShare(
                static_cast<PkgCState>(i), window);
        }
    } else {
        r.avgUncorePower = _cfg.uncorePower;
        r.pkgResidency[0] = 1.0;
    }
    r.packagePower =
        r.avgCorePower * _cores.size() + r.avgUncorePower;
    r.achievedQps =
        window > 0 ? r.requests / sim::toSec(window) : 0.0;
    r.transitionsPerRequest =
        r.requests > 0
            ? static_cast<double>(agg.idleTransitions()) / r.requests
            : 0.0;

    if (!_latency.empty()) {
        r.avgLatencyUs = _latency.mean();
        // Selection, not a sort: nothing reads the samples' order
        // before takeLatencySamples() sorts them.
        const auto tail = _latency.selectPercentiles({99.0, 99.9});
        r.p99LatencyUs = tail[0];
        r.p999LatencyUs = tail[1];
        const double net = sim::toUs(_cfg.networkLatency);
        r.avgLatencyE2eUs = r.avgLatencyUs + net;
        r.p99LatencyE2eUs = r.p99LatencyUs + net;
    }
    return r;
}

RunResult
ServerSim::run()
{
    // Size the measured window for a statistically meaningful
    // number of requests (~60k) but at least one second of
    // simulated time for residency convergence.
    const double target_requests = 60e3;
    const double sec =
        std::max(1.0, target_requests / _totalQps);
    const sim::Tick duration = sim::fromSec(sec);
    const sim::Tick warmup = duration / 10;
    return run(duration, warmup);
}

std::vector<RunResult>
sweepRates(const ServerConfig &cfg,
           const workload::WorkloadProfile &profile,
           const std::vector<double> &rates_qps, sim::Tick duration,
           sim::Tick warmup)
{
    std::vector<RunResult> results;
    results.reserve(rates_qps.size());
    for (const double qps : rates_qps) {
        ServerSim server(cfg, profile, qps);
        results.push_back(duration > 0
                              ? server.run(duration, warmup)
                              : server.run());
    }
    return results;
}

} // namespace aw::server
