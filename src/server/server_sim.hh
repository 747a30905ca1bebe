/**
 * @file
 * The whole-server simulation: N cores fed by open-loop request
 * streams, aggregated into the statistics the paper's figures plot.
 */

#ifndef AW_SERVER_SERVER_SIM_HH
#define AW_SERVER_SERVER_SIM_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cap/powercap.hh"
#include "core/aw_core.hh"
#include "cstate/residency.hh"
#include "server/config.hh"
#include "server/core_sim.hh"
#include "server/telemetry.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/profiles.hh"

namespace aw::server {

/**
 * Results of one server run.
 */
struct RunResult
{
    std::string configName;
    std::string workloadName;
    double offeredQps = 0.0;

    /** Aggregate C-state residency (core-time weighted). */
    cstate::ResidencySnapshot residency;

    /** @{ Latency statistics (microseconds). */
    double avgLatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double p999LatencyUs = 0.0;
    double avgLatencyE2eUs = 0.0;
    double p99LatencyE2eUs = 0.0;
    /** @} */

    /** @{ Power/energy over the measurement window. */
    power::Watts avgCorePower = 0.0;  //!< mean over cores
    power::Watts packagePower = 0.0;  //!< cores + uncore
    power::Joules coreEnergy = 0.0;   //!< all cores
    /** @} */

    std::uint64_t requests = 0;
    double achievedQps = 0.0;
    std::uint64_t mispredictedEntries = 0;

    /** Kernel events executed over the whole run (warmup included;
     *  diagnostics/perf-telemetry only -- never part of artifact
     *  schemas, which must not depend on kernel internals). */
    std::uint64_t events = 0;

    /** Mean idle-state transitions per request (Fig 8c expected-
     *  case input). */
    double transitionsPerRequest = 0.0;

    /** @{ DVFS governance accounting over the measured window: the
     *  number of completed P-state ramps across all cores, the fixed
     *  relock energy they were charged (already inside coreEnergy),
     *  and the core-time mean operating frequency. All zero while
     *  no frequency governor or cap moves the operating point. */
    std::uint64_t freqTransitions = 0;
    power::Joules freqTransitionEnergyJ = 0.0;
    /** @} */

    /** @{ Power-cap / thermal accounting over the measured window
     *  (all zero while the subsystem is disabled): share of the
     *  window any throttle was in effect, forced-idle naps across
     *  all cores, and the peak junction temperature (0 when the
     *  thermal model is off). */
    double capThrottleShare = 0.0;
    std::uint64_t forcedIdleNaps = 0;
    double maxTempC = 0.0;
    /** @} */

    /** Package C-state residency shares (all zero when the package
     *  hierarchy is disabled; PC0 then covers the whole window). */
    std::array<double, kNumPkgCStates> pkgResidency{};

    /** Average uncore power over the window. */
    power::Watts avgUncorePower = 0.0;

    sim::Tick window = 0;
};

/**
 * Driver: builds cores, runs warmup + measurement, aggregates.
 */
class ServerSim
{
  public:
    /**
     * @param cfg        server configuration
     * @param profile    workload
     * @param total_qps  offered load across all cores
     */
    ServerSim(ServerConfig cfg, workload::WorkloadProfile profile,
              double total_qps);

    /**
     * Drive the server from an externally supplied arrival stream
     * (a captured trace, a diurnal-shaped process, or a fleet load
     * balancer's per-server split) instead of the profile's
     * synthetic generators. Requests are dispatched centrally:
     * round-robin across cores under Static dispatch, or via the
     * packing policy when the config selects Packing.
     */
    ServerSim(ServerConfig cfg, workload::WorkloadProfile profile,
              std::unique_ptr<workload::ArrivalProcess> arrivals);

    /**
     * Run @p warmup of unmeasured time followed by @p duration of
     * measured time.
     */
    RunResult run(sim::Tick duration, sim::Tick warmup);

    /** Convenience: run with defaults sized to the offered rate. */
    RunResult run();

    const core::AwCoreModel &awModel() const { return *_aw; }
    const ServerConfig &config() const { return _cfg; }

    /** Kernel events executed so far (perf telemetry). */
    std::uint64_t eventsExecuted() const
    {
        return _sim.eventsExecuted();
    }

    /** Hand over the per-request latency samples of the last
     *  measured window (fleet aggregation pools them for exact
     *  global percentiles), trimmed to their count so the run-time
     *  reservation stays behind, and sorted ascending: the fleet
     *  fold's pooled mean sums them in storage order, and run()'s
     *  percentile selection leaves that order partial. */
    sim::PercentileTracker
    takeLatencySamples()
    {
        sim::PercentileTracker out = std::move(_latency);
        _latency = {};
        out.sortSamples();
        out.shrinkToFit();
        return out;
    }

    /** Attach a passive telemetry observer (see server/telemetry.hh)
     *  to this server and every core. Call before run(); nullptr
     *  detaches. The observer never perturbs the event stream, so
     *  results are byte-identical with or without one. */
    void setObserver(TelemetryObserver *observer);

    /**
     * Fleet budget redistribution: replace the constant
     * cfg.cap.capWatts budget with a piecewise-constant schedule
     * (ascending start times; each span holds until the next). The
     * balancer computes these at epoch boundaries from its own
     * routed-demand counts, so they are a pure function of the
     * serial balancer pass. Call before run(); requires the cap
     * subsystem enabled.
     */
    void setCapSchedule(std::vector<cap::BudgetSpan> spans);

    /** Bytes of RNG engine state the server holds outside itself:
     *  the central dispatcher's engine, if it dispatches, plus every
     *  core's (CoreSim::engineBytes()). */
    std::size_t engineBytes() const;

  private:
    /** Shared constructor body: validate and build the cores. */
    void buildCores(double per_core_rate);

    /** @{ Power-cap control loop (armed only when cfg.cap is
     *  enabled): every control interval, read the package meters,
     *  advance the RC thermal model, step the controller and apply
     *  its decision to every core. */
    void scheduleCapControl();
    void onCapControl();
    /** @} */

    /** Central dispatch: route one request and draw the next. */
    void scheduleNextDispatch();
    std::size_t pickPackingTarget();

    /**
     * Re-evaluate the package C-state after core @p changed moved.
     * Package qualification is tracked incrementally: only the
     * changed core's idle/deep contribution is recomputed, so the
     * per-event cost is O(1) instead of a scan over every core.
     */
    void onCoreStateChange(std::size_t changed);

    ServerConfig _cfg;
    workload::WorkloadProfile _profile;
    double _totalQps;

    sim::Simulator _sim;
    const core::AwCoreModel *_aw = nullptr;
    /** The cores' shared hot-loop tables (outlive the cores). */
    std::unique_ptr<const CoreTables> _tables;
    std::vector<std::unique_ptr<CoreSim>> _cores;
    sim::PercentileTracker _latency;

    /** @{ Per-core package-qualification flags + population counts
     *  (idle = Mode::Idle in a real idle state; deep = additionally
     *  qualifies for PC6), maintained by onCoreStateChange. */
    std::vector<std::uint8_t> _coreIdle;
    std::vector<std::uint8_t> _coreDeep;
    unsigned _numIdle = 0;
    unsigned _numDeep = 0;
    /** @} */

    /** Central dispatcher state (Packing policy or an external
     *  arrival stream); both null under Static dispatch, whose cores
     *  draw their own arrivals. */
    std::unique_ptr<workload::ArrivalProcess> _dispatchArrivals;
    std::unique_ptr<sim::Rng> _dispatchRng;
    std::uint64_t _nextDispatchId = 0;
    std::size_t _rrNext = 0; //!< round-robin cursor (Static dispatch)

    /** Package C-state machinery. */
    PackageCStateModel _package;
    power::EnergyMeter _uncoreMeter;
    sim::EventId _pkgPromotion = sim::kInvalidEventId;
    sim::Tick _statsStart = 0;

    /** @{ Power-cap / thermal machinery (null while disabled). */
    std::unique_ptr<cap::PowerCapController> _capCtl;
    std::unique_ptr<cap::RcThermalModel> _thermal;
    std::vector<cap::BudgetSpan> _capSchedule;
    std::size_t _capSpan = 0;
    cap::ThrottleDecision _capDecision;
    power::Joules _capLastEnergy = 0.0;
    sim::Tick _capLastTick = 0;
    sim::Tick _capThrottledTicks = 0;
    sim::Tick _capThrottleSince = 0;
    bool _capThrottledNow = false;
    double _maxTempC = 0.0;
    /** @} */

    TelemetryObserver *_observer = nullptr;
};

/**
 * Sweep helper: run the same workload/config pair across the
 * profile's rate levels.
 */
std::vector<RunResult>
sweepRates(const ServerConfig &cfg,
           const workload::WorkloadProfile &profile,
           const std::vector<double> &rates_qps,
           sim::Tick duration = 0, sim::Tick warmup = 0);

} // namespace aw::server

#endif // AW_SERVER_SERVER_SIM_HH
