/**
 * @file
 * The built-in idle-governance policies beyond "menu", and the
 * name table that builds any policy from a spec.
 *
 * Spec grammar: `kind[:arg]`. The built-in kinds:
 *
 *   menu             menu-style predictor (the default; see
 *                    cstate/governor.hh)
 *   teo              timer-events-oriented: recent idle intervals
 *                    are binned per enabled state and the deepest
 *                    state backed by a majority of recent history
 *                    wins (models modern Linux's teo governor)
 *   ladder           step up one state after consecutive hits,
 *                    step down immediately on a miss (Linux's
 *                    periodic-tick ladder governor)
 *   static:<state>   always the named state ("static:C6",
 *                    "static:C6A", ...); `deepest`/`shallowest`
 *                    resolve against the enabled set -- the paper's
 *                    "always C6" / "always C1" endpoints
 *   oracle           clairvoyant: told the true upcoming idle
 *                    length by the simulator; the upper bound that
 *                    isolates governor error from transition cost
 *
 * A new policy is one more row of the kind table in governors.cc
 * (see docs/GOVERNORS.md).
 */

#ifndef AW_CSTATE_GOVERNORS_HH
#define AW_CSTATE_GOVERNORS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cstate/governor.hh"

namespace aw::cstate {

/**
 * Timer-events-oriented governor, in the spirit of Linux's teo.
 *
 * Keeps one decaying hit counter per enabled state, binning each
 * observed idle interval under the state that would have been the
 * right call for it. Selection walks from the deepest state down
 * and picks the first whose bin -- together with all deeper bins --
 * accounts for at least half of the retained history; i.e. a state
 * is only entered when recent wakeup patterns say the sleep usually
 * lasts long enough ("intercepts" of shallower bins veto deep
 * entries).
 */
class TeoGovernor : public GovernorPolicy
{
  public:
    /** Weight added to a bin per observation. */
    static constexpr std::uint64_t kPulse = 256;
    /** Per-observation decay: bins lose 1/kDecayDiv of their mass. */
    static constexpr std::uint64_t kDecayDiv = 4;

    explicit TeoGovernor(CStateConfig config);

    std::string spec() const override { return "teo"; }
    CStateId select(sim::Tick now) override;
    void observeIdle(sim::Tick idle) override;
    void reset() override;
    std::unique_ptr<GovernorPolicy> clone() const override;

  private:
    /** One bin per enabled state (bin i <-> fitTable().state(i),
     *  shallowest first). */
    std::vector<std::uint64_t> _bins;
};

/**
 * Ladder governor: a rung per enabled state. Consecutive idle
 * intervals that cover the current rung's target residency promote
 * one rung; a single interval below it demotes one rung. Cheap and
 * history-light, like Linux's periodic-tick ladder.
 */
class LadderGovernor : public GovernorPolicy
{
  public:
    /** Consecutive hits required to climb one rung. */
    static constexpr unsigned kPromoteHits = 4;

    explicit LadderGovernor(CStateConfig config);

    std::string spec() const override { return "ladder"; }
    CStateId select(sim::Tick now) override;
    void observeIdle(sim::Tick idle) override;
    void reset() override;
    std::unique_ptr<GovernorPolicy> clone() const override;

    /** Current rung index into the enabled states (tests). */
    std::size_t rung() const { return _rung; }

  private:
    std::size_t _rung = 0;
    unsigned _hits = 0;
};

/**
 * Static governor: always the named state, no prediction at all --
 * the paper's "always C6" / "always C1" endpoints. Construction is
 * fatal() if the named state is not enabled in the configuration;
 * the `deepest` / `shallowest` aliases resolve against the enabled
 * set so a sweep can name the endpoints without knowing each
 * config's hierarchy.
 */
class StaticGovernor : public GovernorPolicy
{
  public:
    /** @param state_arg  C-state name, "deepest" or "shallowest" */
    StaticGovernor(CStateConfig config, const std::string &state_arg);

    std::string spec() const override;
    CStateId select(sim::Tick now) override;
    std::unique_ptr<GovernorPolicy> clone() const override;

    /** Never move off the pinned state at promotion ticks. */
    CStateId
    reselect(sim::Tick now, sim::Tick elapsed) override
    {
        (void)now;
        (void)elapsed;
        return _state;
    }
    bool canPromote() const override { return false; }

    CStateId state() const { return _state; }

  private:
    CStateId _state;
    std::string _arg; //!< spec round-trip ("deepest" stays symbolic)
};

/**
 * Oracle governor: the simulator tells it the true length of the
 * idle period that is starting, and it enters the state with the
 * least estimated energy over that interval (host cost model; C0 /
 * polling is a candidate too; ties break shallow to spare
 * latency). Never mispredicts,
 * by construction -- the upper bound that separates governor error
 * from intrinsic transition cost. Without a cost model it falls
 * back to target-residency selection over the true length.
 *
 * Needs foreknowledge: the host core must install the clairvoyant
 * callback via setOracle() (only possible where the simulator
 * actually knows the core's next arrival, i.e. per-core synthetic
 * arrival streams under static dispatch).
 */
class OracleGovernor : public GovernorPolicy
{
  public:
    explicit OracleGovernor(CStateConfig config)
        : GovernorPolicy(std::move(config)),
          _states(this->config().enabledStates())
    {}

    std::string spec() const override { return "oracle"; }
    CStateId select(sim::Tick now) override;
    std::unique_ptr<GovernorPolicy> clone() const override;

    /** The select()-time choice was already optimal for the whole
     *  (known) interval: promotion ticks must never move off it,
     *  and the host need not schedule them at all. */
    CStateId
    reselect(sim::Tick now, sim::Tick elapsed) override
    {
        (void)now;
        (void)elapsed;
        return _lastChoice;
    }
    bool canPromote() const override { return false; }

    bool needsOracle() const override { return true; }
    void setOracle(OracleFn fn) override { _oracle = std::move(fn); }
    void setCostModel(CostFn fn) override { _cost = std::move(fn); }

  private:
    OracleFn _oracle;
    CostFn _cost;
    /** Enabled states cached shallow-first (select() is hot). */
    std::vector<CStateId> _states;
    CStateId _lastChoice = CStateId::C0;
};

/**
 * A parsed governor spec: `kind[:arg]`.
 */
struct GovernorSpec
{
    std::string kind;
    std::string arg;
};

/** Split a spec string at the first ':' (fatal on empty kind). */
GovernorSpec parseGovernorSpec(const std::string &spec);

/**
 * Build a policy from a spec like "menu" or "static:C6A" through the
 * one name table of kinds; unknown kinds are fatal() with the known
 * list, and argless kinds reject a stray ":arg".
 */
std::unique_ptr<GovernorPolicy>
makeGovernor(const std::string &spec, const CStateConfig &config);

/** The table's kinds, in table order. */
const std::vector<std::string> &governorKinds();

} // namespace aw::cstate

#endif // AW_CSTATE_GOVERNORS_HH
