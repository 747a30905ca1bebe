#include "cstate/governors.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/registry.hh"

namespace aw::cstate {

// ------------------------------------------------------ TeoGovernor

TeoGovernor::TeoGovernor(CStateConfig config)
    : GovernorPolicy(std::move(config)),
      _bins(fitTable().count(), 0)
{}

void
TeoGovernor::observeIdle(sim::Tick idle)
{
    const auto &fit = fitTable();
    if (fit.count() == 0)
        return;
    // The state that would have been the right call for this
    // interval: deepest whose target residency it covers (bin 0 --
    // the shallowest -- catches everything shorter).
    std::size_t bin = 0;
    for (std::size_t i = 0; i < fit.count(); ++i) {
        if (fit.target(i) <= idle)
            bin = i;
    }
    for (auto &b : _bins)
        b -= b / kDecayDiv;
    _bins[bin] += kPulse;
}

CStateId
TeoGovernor::select(sim::Tick now)
{
    (void)now;
    const auto &fit = fitTable();
    if (fit.count() == 0)
        return CStateId::C0;
    std::uint64_t total = 0;
    for (const auto b : _bins)
        total += b;
    if (total == 0)
        return fit.state(0); // no history yet: be conservative

    // Deepest state whose own-or-deeper bins hold at least half the
    // retained history; the mass in shallower bins is the recent
    // "intercept" evidence vetoing a deeper entry.
    std::uint64_t deep_mass = 0;
    for (std::size_t i = fit.count(); i-- > 0;) {
        deep_mass += _bins[i];
        if (2 * deep_mass >= total)
            return fit.state(i);
    }
    return fit.state(0);
}

void
TeoGovernor::reset()
{
    std::fill(_bins.begin(), _bins.end(), 0);
}

std::unique_ptr<GovernorPolicy>
TeoGovernor::clone() const
{
    return std::make_unique<TeoGovernor>(config());
}

// --------------------------------------------------- LadderGovernor

LadderGovernor::LadderGovernor(CStateConfig config)
    : GovernorPolicy(std::move(config))
{}

CStateId
LadderGovernor::select(sim::Tick now)
{
    (void)now;
    const auto &fit = fitTable();
    if (fit.count() == 0)
        return CStateId::C0;
    return fit.state(_rung);
}

void
LadderGovernor::observeIdle(sim::Tick idle)
{
    const auto &fit = fitTable();
    if (fit.count() == 0)
        return;
    if (idle >= fit.target(_rung)) {
        if (++_hits >= kPromoteHits) {
            _hits = 0;
            if (_rung + 1 < fit.count())
                ++_rung;
        }
    } else {
        _hits = 0;
        if (_rung > 0)
            --_rung;
    }
}

void
LadderGovernor::reset()
{
    _rung = 0;
    _hits = 0;
}

std::unique_ptr<GovernorPolicy>
LadderGovernor::clone() const
{
    return std::make_unique<LadderGovernor>(config());
}

// --------------------------------------------------- StaticGovernor

StaticGovernor::StaticGovernor(CStateConfig config,
                               const std::string &state_arg)
    : GovernorPolicy(std::move(config)), _state(CStateId::C0),
      _arg(state_arg)
{
    const auto &cfg = this->config();
    if (state_arg == "deepest") {
        _state = cfg.deepestEnabled();
    } else if (state_arg == "shallowest") {
        _state = cfg.shallowestEnabled();
    } else if (state_arg.empty()) {
        sim::fatal("static governor needs a state, e.g. "
                   "'static:C6' or 'static:deepest'");
    } else {
        CStateId id;
        if (!cstateFromName(state_arg, id))
            sim::fatal("static governor: unknown C-state '%s' "
                       "(C1|C1E|C6A|C6AE|C6|deepest|shallowest)",
                       state_arg.c_str());
        if (id != CStateId::C0 && !cfg.enabled(id))
            sim::fatal("static:%s requires %s enabled, but the "
                       "C-state config is %s",
                       name(id), name(id), cfg.describe().c_str());
        _state = id;
    }
}

std::string
StaticGovernor::spec() const
{
    return "static:" + _arg;
}

CStateId
StaticGovernor::select(sim::Tick now)
{
    (void)now;
    return _state;
}

std::unique_ptr<GovernorPolicy>
StaticGovernor::clone() const
{
    return std::make_unique<StaticGovernor>(config(), _arg);
}

// --------------------------------------------------- OracleGovernor

CStateId
OracleGovernor::select(sim::Tick now)
{
    if (!_oracle)
        sim::panic("oracle governor selected with no foreknowledge "
                   "installed (host must call setOracle())");
    const sim::Tick true_idle = _oracle(now);
    if (!_cost)
        return _lastChoice = deepestFitting(true_idle);

    // Least estimated energy over the known interval; ties break to
    // the shallower state (cheaper wake for free). C0 -- polling at
    // active power with an instant wake -- is a real candidate: for
    // an idle shorter than even C1's transition flows, not idling
    // at all is the cheapest choice.
    CStateId best = CStateId::C0;
    double best_energy = _cost(best, true_idle);
    for (const auto id : _states) {
        const double energy = _cost(id, true_idle);
        if (energy < best_energy) {
            best = id;
            best_energy = energy;
        }
    }
    return _lastChoice = best;
}

std::unique_ptr<GovernorPolicy>
OracleGovernor::clone() const
{
    // The clairvoyant callback is per-core state the host installs
    // on each clone; never share it.
    return std::make_unique<OracleGovernor>(config());
}

// ------------------------------------------------------ name table

GovernorSpec
parseGovernorSpec(const std::string &spec)
{
    GovernorSpec parsed;
    const auto colon = spec.find(':');
    parsed.kind = spec.substr(0, colon);
    if (colon != std::string::npos)
        parsed.arg = spec.substr(colon + 1);
    if (parsed.kind.empty())
        sim::fatal("empty governor spec");
    return parsed;
}

namespace {

using Factory = std::unique_ptr<GovernorPolicy> (*)(
    const std::string &arg, const CStateConfig &config);

/** An argless kind: rejects a stray ":arg" instead of silently
 *  running unparameterized under a mislabeled spec. */
template <typename G>
std::unique_ptr<GovernorPolicy>
argless(const std::string &arg, const CStateConfig &config)
{
    auto policy = std::make_unique<G>(config);
    if (!arg.empty())
        sim::fatal("governor '%s' takes no argument (got '%s:%s')",
                   policy->spec().c_str(), policy->spec().c_str(),
                   arg.c_str());
    return policy;
}

const sim::RegistryEntry<Factory> kGovernors[] = {
    {"menu", &argless<MenuGovernor>},
    {"teo", &argless<TeoGovernor>},
    {"ladder", &argless<LadderGovernor>},
    {"static",
     [](const std::string &arg, const CStateConfig &config)
         -> std::unique_ptr<GovernorPolicy> {
         return std::make_unique<StaticGovernor>(config, arg);
     }},
    {"oracle", &argless<OracleGovernor>},
};

} // namespace

std::unique_ptr<GovernorPolicy>
makeGovernor(const std::string &spec, const CStateConfig &config)
{
    const auto parsed = parseGovernorSpec(spec);
    return sim::byName(kGovernors, parsed.kind, "governor")(parsed.arg,
                                                            config);
}

const std::vector<std::string> &
governorKinds()
{
    static const std::vector<std::string> kinds =
        sim::registryNames(kGovernors);
    return kinds;
}

} // namespace aw::cstate
