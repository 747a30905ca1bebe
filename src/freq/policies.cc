#include "freq/policies.hh"

#include "sim/logging.hh"
#include "sim/registry.hh"

namespace aw::freq {

// -------------------------------------------------- OndemandPolicy

std::size_t
OndemandPolicy::select(sim::Tick now, double load)
{
    (void)now;
    if (load >= kUpThreshold)
        return _ladder.top();
    // Proportional target, relation L: the lowest ladder level that
    // is at least fmin + load * (fmax - fmin).
    const double fmin = _ladder.frequency(0).hz();
    const double fmax = _ladder.frequency(_ladder.top()).hz();
    return _ladder.levelAtOrAbove(
        sim::Frequency(fmin + load * (fmax - fmin)));
}

// ---------------------------------------------- ConservativePolicy

std::size_t
ConservativePolicy::select(sim::Tick now, double load)
{
    (void)now;
    if (load > kUpThreshold) {
        if (_level < _ladder.top())
            ++_level;
    } else if (load < kDownThreshold) {
        if (_level > 0)
            --_level;
    }
    return _level;
}

// ------------------------------------------------------ name table

namespace {

using Factory = std::unique_ptr<FreqPolicy> (*)(const PStateLadder &);

template <typename P>
std::unique_ptr<FreqPolicy>
build(const PStateLadder &ladder)
{
    return std::make_unique<P>(ladder);
}

const sim::RegistryEntry<Factory> kFreqPolicies[] = {
    {"performance", &build<PerformancePolicy>},
    {"powersave", &build<PowersavePolicy>},
    {"ondemand", &build<OndemandPolicy>},
    {"conservative", &build<ConservativePolicy>},
    {"racetohalt", &build<RaceToHaltPolicy>},
};

} // namespace

std::unique_ptr<FreqPolicy>
makeFreqPolicy(const std::string &spec, const PStateLadder &ladder)
{
    if (spec.empty())
        sim::fatal("empty frequency-governor spec");
    return sim::byName(kFreqPolicies, spec, "frequency governor")(ladder);
}

const std::vector<std::string> &
freqPolicyKinds()
{
    static const std::vector<std::string> kinds =
        sim::registryNames(kFreqPolicies);
    return kinds;
}

} // namespace aw::freq
