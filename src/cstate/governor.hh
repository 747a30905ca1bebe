/**
 * @file
 * Idle-governance policy API.
 *
 * Idle-state selection is a pluggable policy: GovernorPolicy is the
 * abstract per-core decision maker (which C-state should a core
 * going idle now enter?), and MenuGovernor is the default concrete
 * implementation -- a Linux-menu-style predictor feeding a
 * deepest-affordable-state selection. The other built-in policies
 * (teo, ladder, static:<state>, oracle) live in
 * cstate/governors.hh together with the name table that builds
 * any of them from a spec like "menu" or "static:C6A".
 *
 * The paper's core claim (Sec 1) is that servers "rarely enter a
 * deep idle power state" because the OS governor's mispredictions
 * make deep entries too risky -- and that AgileWatts' fast C6A wake
 * makes the *quality* of this policy far less critical. Making the
 * policy an axis lets the simulator quantify exactly that
 * sensitivity.
 */

#ifndef AW_CSTATE_GOVERNOR_HH
#define AW_CSTATE_GOVERNOR_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "cstate/config.hh"
#include "cstate/cstate.hh"
#include "sim/types.hh"

namespace aw::cstate {

/**
 * Idle-interval predictor in the spirit of the Linux menu governor.
 *
 * Keeps the last eight observed idle intervals and derives a
 * "typical interval": repeatedly discard the largest sample while
 * the coefficient of variation stays high, then average what
 * remains. The prediction is the minimum of the typical interval
 * and the most recent observation. For the irregular (high-
 * variance) request streams of latency-critical services this is
 * deliberately pessimistic -- which is exactly why real servers
 * "rarely enter a deep idle power state" (Sec 1): a deep entry that
 * wakes immediately pays the full transition.
 */
class IdlePredictor
{
  public:
    /** Window of retained observations (menu governor: 8). */
    static constexpr std::size_t kWindow = 8;

    /**
     * @param cv_threshold  keep discarding the largest sample while
     *                      stddev/mean exceeds this
     */
    explicit IdlePredictor(double cv_threshold = 0.5)
        : _cvThreshold(cv_threshold)
    {}

    /** Record an observed idle interval. */
    void
    observe(sim::Tick idle)
    {
        const std::size_t n = std::min(_next, kWindow);
        const double incoming = static_cast<double>(idle);
        if (_next >= kWindow) {
            // Ring is full: swap the evicted sample out of the
            // sorted mirror (any instance of an equal value leaves
            // the same multiset).
            const double evicted =
                static_cast<double>(_window[_next % kWindow]);
            std::size_t i = 0;
            while (_sortedVals[i] != evicted)
                ++i;
            while (i + 1 < n) {
                _sortedVals[i] = _sortedVals[i + 1];
                ++i;
            }
            insertSorted(incoming, n - 1);
        } else {
            insertSorted(incoming, n);
        }
        _window[_next % kWindow] = idle;
        ++_next;
        _last = idle;
        _seeded = true;
    }

    /** Predicted length of the next idle interval. */
    sim::Tick predict() const;

    bool seeded() const { return _seeded; }
    double cvThreshold() const { return _cvThreshold; }

    void
    reset()
    {
        // Zero the sample window too: predict() only reads the
        // first min(_next, kWindow) slots, but stale samples
        // surviving a reset are a landmine for any future reader
        // that walks the whole window.
        _window.fill(0);
        _sortedVals.fill(0.0);
        _seeded = false;
        _next = 0;
        _last = 0;
    }

  private:
    /** Shift-insert @p v into the first @p n sorted slots. */
    void
    insertSorted(double v, std::size_t n)
    {
        std::size_t i = n;
        while (i > 0 && _sortedVals[i - 1] > v) {
            _sortedVals[i] = _sortedVals[i - 1];
            --i;
        }
        _sortedVals[i] = v;
    }

    double _cvThreshold;
    std::array<sim::Tick, kWindow> _window{};
    /** The window's samples kept sorted ascending (as doubles), so
     *  predict() -- called once per idle period -- never re-sorts. */
    std::array<double, kWindow> _sortedVals{};
    std::size_t _next = 0;
    sim::Tick _last = 0;
    bool _seeded = false;
};

/**
 * Per-policy cache of the enabled states' selection attributes
 * (depth-sorted ids + target residencies), so the per-idle-period
 * deepest-fitting scan reads a flat 2x8-word array instead of
 * materializing vectors and chasing the descriptor table. Built once
 * at policy construction -- a policy's CStateConfig is immutable.
 */
class FitTable
{
  public:
    FitTable() = default;
    explicit FitTable(const CStateConfig &config);

    std::size_t count() const { return _count; }
    CStateId state(std::size_t i) const { return _states[i]; }
    sim::Tick target(std::size_t i) const { return _targets[i]; }
    int depth(std::size_t i) const { return _depths[i]; }

    /** Deepest state whose target residency @p idle covers;
     *  fallback to the shallowest (or C0 when the table is empty). */
    CStateId
    deepestFitting(sim::Tick idle) const
    {
        if (_count == 0)
            return CStateId::C0;
        CStateId chosen = _states[0];
        for (std::size_t i = 0; i < _count; ++i) {
            if (_targets[i] <= idle)
                chosen = _states[i];
        }
        return chosen;
    }

    /** Smallest target residency among enabled states strictly
     *  deeper than @p current (kMaxTick if none) -- the idle length
     *  at which deepestFitting() starts outranking @p current.
     *  Precomputed per state; this is read once per idle period. */
    sim::Tick
    firstDeeperTarget(CStateId current) const
    {
        return _firstDeeper[index(current)];
    }

  private:
    std::array<CStateId, kNumCStates> _states{};
    std::array<sim::Tick, kNumCStates> _targets{};
    std::array<int, kNumCStates> _depths{};
    std::array<sim::Tick, kNumCStates> _firstDeeper{};
    std::size_t _count = 0;
};

/**
 * Abstract idle-governance policy: one instance per core.
 *
 * The core simulator drives the policy with exactly three events:
 * select() when the core runs out of work, observeIdle() with the
 * realized idle interval when it wakes, and reselect() at OS-tick
 * promotion points while it stays idle. Policies are built once per
 * server from a registry spec and then clone()d per core, so no
 * mutable prediction state is ever shared between cores.
 */
class GovernorPolicy
{
  public:
    /** A clairvoyant callback: the true length of the idle period
     *  that starts at @p now (what an oracle is "told" by the
     *  simulator). */
    using OracleFn = std::function<sim::Tick(sim::Tick now)>;

    /** Host-supplied energy estimate (J) of idling in @p state for
     *  a known interval: transition flows at active power plus the
     *  resident window at state power, from the live transition-
     *  latency and power models. Lets a clairvoyant policy pick the
     *  truly cheapest state instead of trusting the descriptor's
     *  conservative target residencies. */
    using CostFn =
        std::function<double(CStateId state, sim::Tick idle_len)>;

    explicit GovernorPolicy(CStateConfig config)
        : _config(std::move(config)), _fit(_config)
    {}
    virtual ~GovernorPolicy() = default;

    /** Enabled idle states this policy selects from. */
    const CStateConfig &config() const { return _config; }

    /** The registry spec that rebuilds this policy, e.g. "menu" or
     *  "static:C6A". */
    virtual std::string spec() const = 0;

    /** Select the idle state for a core going idle at @p now. */
    virtual CStateId select(sim::Tick now) = 0;

    /** Feed back the realized length of an idle interval once the
     *  core wakes (or a wake arrives mid-entry). */
    virtual void observeIdle(sim::Tick idle) { (void)idle; }

    /** Forget all learned history (fresh-boot state). */
    virtual void reset() {}

    /** Fresh per-core instance: same configuration and parameters,
     *  no shared mutable state. */
    virtual std::unique_ptr<GovernorPolicy> clone() const = 0;

    /**
     * cpuidle-style OS-tick re-selection: the core has already been
     * idle for @p elapsed and is still idle, so the observed
     * interval can only grow. Default: the deepest enabled state
     * whose target residency @p elapsed already covers.
     */
    virtual CStateId
    reselect(sim::Tick now, sim::Tick elapsed)
    {
        (void)now;
        return deepestFitting(elapsed);
    }

    /** True if reselect() can ever deepen a choice: lets the host
     *  skip scheduling OS promotion ticks entirely for policies
     *  that are pinned (static) or already optimal (oracle), so an
     *  idle core does not churn the event queue for nothing. */
    virtual bool canPromote() const { return true; }

    /**
     * Smallest realized idle length at which reselect() could pick a
     * state deeper than @p current, or kMaxTick if no deeper enabled
     * state exists. Lets the host batch OS-tick promotion checks: it
     * schedules one tick at the first multiple of the promotion
     * interval past this horizon instead of re-ticking an idle core
     * through checks that cannot change anything. The default
     * matches the default reselect() (target-residency thresholds);
     * a policy that overrides reselect() with different dynamics
     * must override this too -- returning 0 restores the
     * conservative check-every-tick behavior.
     */
    virtual sim::Tick
    promotionHorizon(CStateId current) const
    {
        return _fit.firstDeeperTarget(current);
    }

    /** True if select() needs the simulator's clairvoyant callback
     *  (the oracle policy). The host must setOracle() before the
     *  first select(), and must refuse to run the policy when it
     *  has no foreknowledge to offer. */
    virtual bool needsOracle() const { return false; }

    /** Install the clairvoyant callback (no-op for real policies). */
    virtual void setOracle(OracleFn fn) { (void)fn; }

    /** Install the per-state energy estimate (no-op for real
     *  policies; optional even for the oracle, which falls back to
     *  target-residency selection without it). */
    virtual void setCostModel(CostFn fn) { (void)fn; }

  protected:
    /**
     * Deepest enabled state whose target residency is <= the
     * predicted idle length; falls back to the shallowest enabled
     * state (there is always something shallower than the
     * prediction horizon to halt in), or C0 (poll) if no idle state
     * is enabled.
     */
    CStateId
    deepestFitting(sim::Tick predicted_idle) const
    {
        return _fit.deepestFitting(predicted_idle);
    }

    /** The cached selection attributes of the enabled states. */
    const FitTable &fitTable() const { return _fit; }

  private:
    CStateConfig _config;
    FitTable _fit;
};

/**
 * The default policy: menu-style prediction feeding deepest-
 * affordable selection (the repo's original IdleGovernor, verbatim
 * -- "menu" in the registry and the behavior-preserving default of
 * every ServerConfig).
 */
class MenuGovernor : public GovernorPolicy
{
  public:
    explicit MenuGovernor(CStateConfig config,
                          double cv_threshold = 0.5)
        : GovernorPolicy(std::move(config)), _predictor(cv_threshold)
    {}

    std::string spec() const override { return "menu"; }

    CStateId
    select(sim::Tick now) override
    {
        (void)now;
        return selectFor(_predictor.predict());
    }

    void
    observeIdle(sim::Tick idle) override
    {
        _predictor.observe(idle);
    }

    void reset() override { _predictor.reset(); }

    std::unique_ptr<GovernorPolicy>
    clone() const override
    {
        return std::make_unique<MenuGovernor>(
            config(), _predictor.cvThreshold());
    }

    /** select() with an explicit prediction (for tests/model use). */
    CStateId
    selectFor(sim::Tick predicted_idle) const
    {
        return deepestFitting(predicted_idle);
    }

    IdlePredictor &predictor() { return _predictor; }

  private:
    IdlePredictor _predictor;
};

} // namespace aw::cstate

#endif // AW_CSTATE_GOVERNOR_HH
