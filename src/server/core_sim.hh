/**
 * @file
 * Per-core discrete-event model: request service, idle-state entry/
 * exit through the OS governor, residency and energy accounting,
 * turbo boost decisions and snoop-service power.
 *
 * The core cycles through four modes:
 *
 *     Active --queue empty--> EnteringIdle --entry done--> Idle
 *       ^                                                    |
 *       +--- exit done --- ExitingIdle <---- arrival --------+
 *
 * An arrival during EnteringIdle marks a pending wake: hardware
 * completes the entry flow and immediately begins the exit flow
 * (the misprediction cost that makes deep states dangerous for
 * irregular traffic -- and that AgileWatts makes nearly free).
 *
 * The per-event inner loop is de-virtualized: the operating
 * frequency, per-state transition latencies (C6 entry's dynamic
 * cache-flush component excepted) and active power of every P-state
 * ladder level, the per-state resident powers and the per-state
 * descriptor attributes it consults per idle period are precomputed
 * once per server into flat CoreTables that its cores share, so
 * steady-state events never re-derive them through the model layers.
 */

#ifndef AW_SERVER_CORE_SIM_HH
#define AW_SERVER_CORE_SIM_HH

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/aw_core.hh"
#include "cstate/governor.hh"
#include "cstate/residency.hh"
#include "cstate/transition.hh"
#include "freq/freq_policy.hh"
#include "power/energy_meter.hh"
#include "server/config.hh"
#include "server/telemetry.hh"
#include "server/turbo.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "uarch/snoop.hh"
#include "workload/arrival.hh"
#include "workload/profiles.hh"

namespace aw::server {

/** Per-state core power used by the simulator. Defaults to the
 *  Table 1 constants with the AW states at the PPA midpoints. */
struct StatePowers
{
    std::array<power::Watts, cstate::kNumCStates> idle{};
    power::Watts activeP1 = 4.0;
    power::Watts activeBoost = 7.0;

    /** Build from descriptors + the live PPA model. */
    static StatePowers fromModels(const core::AwPpaModel &ppa);
};

/**
 * The hot-loop constants of one server's cores, built once per server
 * and shared by const reference (every core of a server runs the same
 * config, model and profile). A core's operating point is always one
 * ladder level: an ungoverned core sits at level 0 (runAtPn) or the
 * top, which are the PStateTable's Pn and P1 points bit for bit.
 */
struct CoreTables
{
    /** One ladder level's operating point. */
    struct Level
    {
        sim::Frequency effFreq; //!< AW's ~1% gate IR-drop applied
        /** Per-state latencies; C6 reads latC6Fixed instead. */
        std::array<cstate::TransitionLatency, cstate::kNumCStates> lat{};
        cstate::TransitionLatency latC6Fixed; //!< C6 minus live flush
        power::Watts activePower = 0.0;    //!< profile-scaled
        power::Watts activeUnscaled = 0.0; //!< turbo sustain anchor
    };

    CoreTables(const ServerConfig &cfg, const freq::PStateLadder &ladder,
               const core::AwCoreModel &aw,
               const workload::WorkloadProfile &profile);

    std::vector<Level> levels; //!< indexed by ladder level
    StatePowers powers;
    power::Watts boostPower = 0.0; //!< profile-scaled turbo draw
    std::array<bool, cstate::kNumCStates> isAw{};
    std::array<int, cstate::kNumCStates> depth{};
    cstate::CStateId deepestEnabled = cstate::CStateId::C0;
    std::size_t minLevel = 0; //!< LatencyQoS frequency floor
};

/** Completion callback: (request, end_to_end_extra). */
using CompletionHook =
    std::function<void(const workload::Request &)>;

/**
 * One simulated core.
 */
class CoreSim
{
  public:
    /** Operating mode of the core state machine. */
    enum class Mode
    {
        Active,
        EnteringIdle,
        Idle,
        ExitingIdle,
    };

    /**
     * @param simr          the shared simulator
     * @param cfg           server configuration
     * @param tables        the server's shared hot-loop tables
     * @param governor      idle-governance prototype; the core
     *                      clone()s its own private instance
     * @param freq_proto    frequency-governance prototype (also
     *                      cloned per core); nullptr pins the
     *                      operating point (Pn under runAtPn, else
     *                      P1) unless the cap controller moves it
     * @param aw            shared AW constants (latencies, PPA)
     * @param profile       workload profile
     * @param per_core_rate this core's arrival rate (req/s);
     *                      0 disables internal generation (the
     *                      server dispatches via inject())
     * @param id            core index (seeds the RNG)
     * @param on_complete   invoked at each request completion
     */
    CoreSim(sim::Simulator &simr, const ServerConfig &cfg,
            const CoreTables &tables,
            const cstate::GovernorPolicy &governor,
            const freq::FreqPolicy *freq_proto,
            const core::AwCoreModel &aw,
            const workload::WorkloadProfile &profile,
            double per_core_rate, unsigned id,
            CompletionHook on_complete);

    /** Begin generating arrivals (call once before run()). */
    void start();

    /** Externally dispatch a request to this core (Packing).
     *  Returns the core-local id assigned to the request, so the
     *  dispatcher can publish its routing decision. */
    std::uint64_t inject(workload::Request req);

    /** Requests waiting in this core's queue. */
    std::size_t queueLength() const { return _queue.size(); }

    /** Hook invoked after every power-state change; the server
     *  uses it to re-evaluate the package C-state. */
    void
    setStateChangeHook(std::function<void()> hook)
    {
        _onStateChange = std::move(hook);
    }

    /** Package model consulted for extra PC6 wake latency. */
    void
    setPackageModel(const PackageCStateModel *pkg)
    {
        _package = pkg;
    }

    /** Attach a passive telemetry observer (nullptr = disabled;
     *  every publication site is a single branch). Attach before
     *  start() so the observer sees the initial state stream. */
    void
    setObserver(TelemetryObserver *observer)
    {
        _observer = observer;
    }

    /**
     * Apply a cap-controller throttle decision (ServerSim's control
     * loop; see cap::PowerCapController). @p level_cap becomes the
     * operating-point ceiling -- it overrides the LatencyQoS floor,
     * which in turn bounds the governor's request -- and a nap of
     * @p nap_len is injected per @p nap_period of non-nap time at
     * service boundaries (intel_powerclamp-style forced idle in the
     * deepest enabled state).
     */
    void setCapState(std::size_t level_cap, sim::Tick nap_len,
                     sim::Tick nap_period);

    /** Forced-idle naps begun over the statistics window. */
    std::uint64_t forcedNaps() const
    {
        return _forcedNaps - _forcedNapsAtReset;
    }

    /** Bytes of RNG engine state this core holds outside itself:
     *  an engine for its own arrivals, one for its snoop source,
     *  each only if it draws from it. */
    std::size_t
    engineBytes() const
    {
        return (_rng ? sizeof(sim::Rng) : 0) + _snoops.engineBytes();
    }

    /** @{ Statistics access. */
    cstate::ResidencySnapshot residency() const;
    power::Joules energy();
    power::Watts averagePower();
    std::uint64_t requestsCompleted() const { return _completed; }
    std::uint64_t mispredictedEntries() const
    {
        return _mispredictedEntries;
    }

    /** Reset the statistics window (post-warmup). */
    void resetStats();
    /** @} */

    Mode mode() const { return _mode; }
    cstate::CStateId idleState() const { return _idleState; }

    /** Depth ordering key of the current idle state (precomputed;
     *  the packing dispatcher ranks sleepers with it per request). */
    int idleStateDepth() const
    {
        return _tables.depth[cstate::index(_idleState)];
    }

    /** Effective base frequency (AW's ~1% gate IR-drop applied) of
     *  the currently applied ladder level. */
    sim::Frequency effectiveBaseFrequency() const
    {
        return _op.effFreq;
    }

    /** @{ Completed P-state ramps / their fixed energy, both counted
     *  over the current statistics window. */
    std::uint64_t freqTransitions() const
    {
        return _freqTransitions - _freqTransitionsAtReset;
    }
    power::Joules freqTransitionEnergy() const
    {
        return _freqRampEnergy - _rampEnergyAtReset;
    }
    /** @} */

  private:
    /** @{ State machine. */
    void scheduleNextArrival();
    void onArrival(workload::Request req);
    void beginService();
    void onServiceDone(workload::Request req);
    void beginIdle();
    /** The one idle-entry flow: poll in C0 or run @p state's entry
     *  flow (C6 flushes the private caches) into onIdleEntered. */
    void enterIdle(cstate::CStateId state);
    void onIdleEntered();
    /** End the idle period at an arrival (or a nap end with work
     *  queued): feed the governor, publish the wake stall, and wake
     *  now or, mid-entry, right after the entry flow lands. */
    void endIdle();
    void beginWake();
    void onWakeDone();
    /** @} */

    /** @{ Forced-idle injection (cap enforcement beyond the ladder
     * floor). A due nap preempts the queue at a service boundary:
     * the core runs the normal entry flow into its deepest enabled
     * state, ignores arrivals until the nap elapses (they queue;
     * no wake-pending misprediction), then pays the normal wake --
     * which is exactly where legacy C6 bleeds p99 and C6A does
     * not. */
    void beginForcedNap();
    void onNapEnd(sim::Tick stamp);
    /** @} */

    /** @{ OS-tick idle promotion (ServerConfig::idlePromotion).
     * Checks are batched: instead of re-ticking every interval, one
     * event is armed at the first tick multiple past the governor's
     * promotion horizon (the earliest elapsed idle at which a deeper
     * state can win) -- same promotion instants, no no-op ticks. */
    void maybeSchedulePromotion();
    void onPromotionTick(sim::Tick idle_start);
    /** @} */

    /** @{ Snoop handling. */
    void scheduleNextSnoop();
    void onSnoop();
    /** @} */

    /** @{ DVFS governance. The policy's chosen level is clamped to
     *  the LatencyQoS floor and lands after freq::kRampLatency; the
     *  old level's tables stay live for the ramp window, and a
     *  retarget mid-ramp coalesces into the in-flight ramp. Without
     *  a policy only the cap controller moves the level. */

    /** The level the core is moving toward (or sitting at). */
    std::size_t targetLevel() const
    {
        return _rampInFlight ? _pendingLevel : _curLevel;
    }

    /** Lazy busy-time accrual for the policy's load estimate. */
    void accrueLoad(sim::Tick now)
    {
        if (_busyNow)
            _busyAccum += now - _loadLast;
        _loadLast = now;
    }

    /** Busy/idle edge: update load accounting, let edge-driven
     *  policies retarget. Only Mode::Active counts as busy --
     *  transition flows burn active power but serve no work. */
    void noteBusy(bool busy);

    void scheduleFreqEval();
    void onFreqEval();
    void requestLevel(std::size_t level);
    void onRampDone();
    void applyLevel(std::size_t level);
    /** @} */

    /** Recompute and charge the current power level. */
    void updatePower();

    /** Record a residency-state entry and mirror it to the
     *  telemetry observer (they must see the same stream). */
    void
    noteStateEnter(cstate::CStateId state)
    {
        _residency.recordEnter(state, _sim.now());
        if (_observer)
            _observer->onCStateEnter(_id, _sim.now(), state);
    }

    /** Feed an ended idle period to the governor and mirror it to
     *  the telemetry observer (observeIdle ground truth). */
    void
    noteIdleObserved(sim::Tick idle)
    {
        _governor->observeIdle(idle);
        if (_observer)
            _observer->onIdleObserved(_id, _sim.now(), idle);
    }

    /** Power of the current machine state. */
    power::Watts currentPower() const;

    /** Full transition latency of @p state at the applied operating
     *  point. All states but C6 come straight from the level's
     *  table; C6 adds the live cache-flush cost (its dirty fraction
     *  follows workload behaviour) to the precomputed fixed entry
     *  path. */
    cstate::TransitionLatency
    latencyOf(cstate::CStateId state) const
    {
        if (state == cstate::CStateId::C6) {
            cstate::TransitionLatency lat = _op.latC6Fixed;
            lat.entry += _caches.flushTime(_op.effFreq);
            return lat;
        }
        return _op.lat[cstate::index(state)];
    }

    sim::Simulator &_sim;
    const ServerConfig &_cfg;
    const CoreTables &_tables;
    const core::AwCoreModel &_aw;
    const workload::WorkloadProfile &_profile;
    CompletionHook _onComplete;

    /** Per-core microarchitectural state. */
    uarch::PrivateCaches _caches;
    std::unique_ptr<cstate::GovernorPolicy> _governor;
    cstate::ResidencyCounters _residency;
    power::EnergyMeter _meter;
    TurboModel _turbo;
    uarch::SnoopTraffic _snoops;

    /** @{ Operating point: the applied ladder level and a copy of
     *  its table, so the hot loop reads it in place (null policy =
     *  pinned unless the cap controller moves it). */
    std::unique_ptr<freq::FreqPolicy> _freqPolicy;
    CoreTables::Level _op;
    std::size_t _curLevel = 0;
    std::size_t _pendingLevel = 0;
    /** Last unclamped level request; re-issued when the cap ceiling
     *  moves so the point recovers once headroom returns. */
    std::size_t _wantLevel = 0;
    /** Cap-controller operating-point ceiling (SIZE_MAX, the
     *  default, = unclamped; overrides the LatencyQoS floor). */
    std::size_t _capLevel = static_cast<std::size_t>(-1);
    bool _rampInFlight = false;
    bool _busyNow = false;
    sim::Tick _loadLast = 0;  //!< busy-accrual cursor
    sim::Tick _busyAccum = 0; //!< busy time this eval window
    std::uint64_t _freqTransitions = 0;
    std::uint64_t _freqTransitionsAtReset = 0;
    power::Joules _freqRampEnergy = 0.0;
    power::Joules _rampEnergyAtReset = 0.0;
    /** @} */

    std::unique_ptr<workload::ArrivalProcess> _arrivals;
    /** Draws this core's own arrivals and demands; absent (no
     *  engine state carried) when the server dispatches to it. */
    std::unique_ptr<sim::Rng> _rng;
    std::function<void()> _onStateChange;
    const PackageCStateModel *_package = nullptr;
    TelemetryObserver *_observer = nullptr;
    unsigned _id = 0;

    /** @{ Forced-idle (cap) state. All zero while uncapped: the
     *  only disabled-path cost is one never-taken test per service
     *  boundary. */
    sim::Tick _napLen = 0;    //!< current nap length (0 = off)
    sim::Tick _napPeriod = 0; //!< nap window
    sim::Tick _nextNapAt = 0; //!< earliest next nap start
    bool _napping = false;
    std::uint64_t _forcedNaps = 0;
    std::uint64_t _forcedNapsAtReset = 0;
    /** @} */

    Mode _mode = Mode::Active;
    cstate::CStateId _idleState = cstate::CStateId::C0;
    bool _wakePending = false;
    bool _boosting = false;
    sim::Tick _idleStart = 0;
    sim::Tick _snoopBusyUntil = 0;
    sim::EventId _promotionEvent = sim::kInvalidEventId;
    /** Absolute time of the next self-generated arrival (kMaxTick
     *  when unknown) -- the oracle governor's foreknowledge. */
    sim::Tick _nextArrivalAt = sim::kMaxTick;

    std::deque<workload::Request> _queue;
    std::uint64_t _completed = 0;
    std::uint64_t _nextReqId = 0;
    std::uint64_t _mispredictedEntries = 0;
    sim::Tick _statsStart = 0;
};

} // namespace aw::server

#endif // AW_SERVER_CORE_SIM_HH
