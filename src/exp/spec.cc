#include "exp/spec.hh"

#include <cmath>

#include "exp/axis.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/registry.hh"

namespace aw::exp {

namespace {

using workload::WorkloadProfile;
using server::ServerConfig;

const sim::RegistryEntry<WorkloadProfile (*)()> kWorkloads[] = {
    {"memcached", &WorkloadProfile::memcached},
    {"mysql", &WorkloadProfile::mysql},
    {"kafka", &WorkloadProfile::kafka},
    {"specpower", &WorkloadProfile::specpower},
    {"nginx", &WorkloadProfile::nginx},
    {"spark", &WorkloadProfile::spark},
    {"hive", &WorkloadProfile::hive},
};

const sim::RegistryEntry<ServerConfig (*)()> kConfigs[] = {
    {"baseline", &ServerConfig::baseline},
    {"aw", &ServerConfig::awBaseline},
    {"nt_baseline", &ServerConfig::ntBaseline},
    {"nt_no_c6", &ServerConfig::ntNoC6},
    {"nt_no_c6_no_c1e", &ServerConfig::ntNoC6NoC1e},
    {"nt_aw", &ServerConfig::ntAwNoC6NoC1e},
    {"t_no_c6", &ServerConfig::tNoC6},
    {"t_no_c6_no_c1e", &ServerConfig::tNoC6NoC1e},
    {"t_aw", &ServerConfig::tAwNoC6NoC1e},
    {"c1c6", &ServerConfig::legacyC1C6},
    {"c1only", &ServerConfig::legacyC1Only},
    {"aw_c6a", &ServerConfig::awC6aOnly},
};

} // namespace

workload::WorkloadProfile
profileByName(const std::string &name)
{
    return sim::byName(kWorkloads, name, "workload")();
}

server::ServerConfig
configByName(const std::string &name)
{
    return sim::byName(kConfigs, name, "config")();
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names =
        sim::registryNames(kWorkloads);
    return names;
}

const std::vector<std::string> &
configNames()
{
    static const std::vector<std::string> names =
        sim::registryNames(kConfigs);
    return names;
}

std::string
GridPoint::label() const
{
    std::string l;
    for (const Axis &a : axes()) {
        if (!a.shown(*this))
            continue;
        if (!l.empty())
            l += '/';
        l += a.format(a.label, *this);
    }
    return l;
}

std::pair<sim::Tick, sim::Tick>
resolveWindow(double seconds, double warmupSeconds)
{
    if (warmupSeconds >= 0.0 && seconds <= 0.0)
        sim::fatal("a warmup (--warmup, warmupSeconds) needs an "
                   "explicit window (--seconds, seconds): the "
                   "auto-sized window picks its own warmup");
    const sim::Tick window = seconds > 0.0 ? sim::fromSec(seconds) : 0;
    return {window, warmupSeconds >= 0.0 ? sim::fromSec(warmupSeconds)
                                         : window / 10};
}

void
ExperimentSpec::validate() const
{
    if (qpsPerServer && fleetSizes.empty())
        sim::fatal("ExperimentSpec '%s': qpsPerServer requires a "
                   "fleet-size axis",
                   name.c_str());
    resolveWindow(seconds, warmupSeconds);
    if (timelineIntervalSeconds < 0.0 ||
        !std::isfinite(timelineIntervalSeconds))
        sim::fatal("ExperimentSpec '%s': timelineIntervalSeconds "
                   "must be >= 0 (0 disables the sampler; got %f)",
                   name.c_str(), timelineIntervalSeconds);
    if (epochSeconds < 0.0 || !std::isfinite(epochSeconds))
        sim::fatal("ExperimentSpec '%s': epochSeconds must be a "
                   "finite non-negative number (0 = one epoch "
                   "spanning the run; got %f)",
                   name.c_str(), epochSeconds);
    if (!dispatch.empty())
        server::dispatchPolicyByName(dispatch);

    // Resolve every axis value now so a bad name dies here, on the
    // caller's thread, not inside a worker mid-sweep.
    for (const Axis &a : axes()) {
        if (a.required && !a.swept(*this))
            sim::fatal("ExperimentSpec '%s': empty %s axis",
                       name.c_str(), a.key);
        if (a.check)
            a.check(a, *this);
    }
}

std::size_t
ExperimentSpec::gridSize() const
{
    std::size_t n = 1;
    for (const Axis &a : axes())
        n *= a.count(*this);
    return n;
}

std::vector<GridPoint>
ExperimentSpec::expand() const
{
    validate();

    // An odometer over the axes in expansion order: the last axis
    // turns fastest.
    const auto table = axes();
    std::vector<std::size_t> counts, digit(table.size(), 0);
    for (const Axis &a : table)
        counts.push_back(a.count(*this));
    const std::size_t n = gridSize();
    std::vector<GridPoint> grid;
    grid.reserve(n);
    for (std::size_t index = 0; index < n; ++index) {
        GridPoint pt;
        pt.index = index;
        for (std::size_t a = 0; a < table.size(); ++a)
            table[a].assign(*this, digit[a], pt);
        pt.seed = sim::deriveSeed(seed, index);
        grid.push_back(std::move(pt));
        for (std::size_t a = table.size(); a-- > 0;) {
            if (++digit[a] < counts[a])
                break;
            digit[a] = 0;
        }
    }
    return grid;
}

} // namespace aw::exp
