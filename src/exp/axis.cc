#include "exp/axis.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <vector>

#include "cluster/fleet.hh"
#include "cluster/routing.hh"
#include "cstate/governors.hh"
#include "freq/policies.hh"
#include "sim/logging.hh"

namespace aw::exp {

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        const std::string item =
            arg.substr(start, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

namespace {

using Spec = ExperimentSpec;
using Query = SweepResult::Query;
using cluster::FleetConfig;

/** fatal() unless @p v lies in the axis's numeric range; the message
 *  names @p spec (validate()) or, without one, the flag. */
void
checkRange(const Axis &a, double v, const Spec *spec = nullptr)
{
    if (std::isfinite(v) && (a.positive ? v > 0.0 : v >= 0.0))
        return;
    if (spec)
        sim::fatal("ExperimentSpec '%s': %s axis: %s (got %g)",
                   spec->name.c_str(), a.key, a.rule, v);
    sim::fatal("%s: %s (got %g)", a.flag, a.rule, v);
}

template <typename T> constexpr bool kIsVector = false;
template <typename T> constexpr bool kIsVector<std::vector<T>> = true;

/**
 * Fill an entry's unset bindings from the named fields: @p S is the
 * spec's value list (or, for a count axis such as replicas, the
 * count, whose value i is i itself), @p P the point's coordinate and
 * @p Q the query's filter.
 */
template <auto S, auto P, auto Q>
constexpr Axis
bind(Axis a)
{
    using T =
        std::remove_cvref_t<decltype(std::declval<GridPoint &>().*P)>;
    constexpr bool list = kIsVector<
        std::remove_cvref_t<decltype(std::declval<Spec &>().*S)>>;
    constexpr bool text = std::is_same_v<T, std::string>;

    if (!a.size)
        a.size = [](const Spec &s) -> std::size_t {
            if constexpr (list)
                return (s.*S).size();
            else
                return s.*S;
        };
    if (!a.assign)
        a.assign = [](const Spec &s, std::size_t i, GridPoint &pt) {
            if constexpr (list)
                pt.*P = i < (s.*S).size() ? (s.*S)[i] : T{};
            else
                pt.*P = static_cast<T>(i);
        };
    a.value = [](const GridPoint &pt) -> Coord {
        if constexpr (text)
            return &(pt.*P);
        else
            return Coord(std::in_place_type<T>, pt.*P);
    };
    a.matches = [](const Query &q, const GridPoint &pt) {
        return !(q.*Q) || *(q.*Q) == pt.*P;
    };
    a.pin = [](Query &q, const GridPoint &pt) { q.*Q = pt.*P; };
    a.parse = [](const Axis &ax, Spec &s, const char *arg) {
        if constexpr (text) {
            s.*S = splitList(arg);
        } else if constexpr (list) {
            (s.*S).clear();
            for (const auto &item : splitList(arg)) {
                T v{};
                if constexpr (std::is_same_v<T, double>)
                    v = parseDouble(ax.flag, item.c_str());
                else
                    v = parseUnsigned(ax.flag, item.c_str());
                checkRange(ax, v);
                (s.*S).push_back(v);
            }
        } else {
            s.*S = parseUnsigned(ax.flag, arg);
            checkRange(ax, s.*S);
        }
        // An empty list would silently leave an optional axis unswept.
        if constexpr (list)
            if ((s.*S).empty())
                sim::fatal("%s: needs at least one value", ax.flag);
    };
    if constexpr (!text)
        if (!a.check)
            a.check = [](const Axis &ax, const Spec &s) {
                if constexpr (list)
                    for (const double v : s.*S)
                        checkRange(ax, v, &s);
                else
                    checkRange(ax, s.*S, &s);
            };
    return a;
}

/**
 * Resolve every (config, governor) pairing the grid will actually
 * run, so a static:<state> spec naming a state some config disables
 * dies here -- before the sweep launches -- instead of killing a
 * worker mid-run with all completed points lost.
 */
void
checkGovernors(const Axis &, const Spec &s)
{
    for (const auto &g : s.governors) {
        for (const auto &c : s.configs) {
            const auto policy =
                cstate::makeGovernor(g, configByName(c).cstates);
            if (policy->needsOracle() && !s.fleetSizes.empty())
                sim::fatal("ExperimentSpec '%s': governor '%s' is "
                           "single-server only (fleet dispatch has "
                           "no per-core arrival foreknowledge)",
                           s.name.c_str(), g.c_str());
            if (policy->needsOracle() && s.dispatch == "packing")
                sim::fatal("ExperimentSpec '%s': governor '%s' "
                           "needs static dispatch",
                           s.name.c_str(), g.c_str());
        }
    }
}

constexpr Axis kAxes[] = {
    bind<&Spec::workloads, &GridPoint::workload, &Query::workload>({
        .key = "workload", .column = 0, .required = true,
        .heading = "workload", .flag = "--workloads",
        .help = "workload profiles (default memcached)",
        .check = [](const Axis &, const Spec &s) {
            for (const auto &w : s.workloads)
                profileByName(w);
        }}),
    bind<&Spec::configs, &GridPoint::config, &Query::config>({
        .key = "config", .column = 1, .required = true,
        .heading = "config", .flag = "--configs",
        .help = "server configs (default baseline)",
        .check = [](const Axis &, const Spec &s) {
            for (const auto &c : s.configs)
                configByName(c);
        }}),
    bind<&Spec::governors, &GridPoint::governor, &Query::governor>({
        .key = "governor", .column = 2,
        .heading = "governor", .flag = "--governors",
        .help = "idle governors (menu|teo|ladder|\n"
                "static:<state>|oracle; default: config\n"
                "default; oracle is single-server only)",
        .names = cstate::governorKinds, .check = checkGovernors,
        .apply = [](const GridPoint &pt, FleetConfig &fc) {
            fc.server.governor = pt.governor;
        }}),
    bind<&Spec::freqPolicies, &GridPoint::freqPolicy,
         &Query::freqPolicy>({
        .key = "freq_policy", .column = 3, .optionalColumn = true,
        .heading = "freq", .flag = "--freq-governors",
        .help = "DVFS governors (performance|powersave|\n"
                "ondemand|conservative|racetohalt;\n"
                "default: the static operating point)",
        .names = freq::freqPolicyKinds,
        .check = [](const Axis &, const Spec &s) {
            // Against each config's own P-state table.
            for (const auto &f : s.freqPolicies)
                for (const auto &c : s.configs)
                    freq::makeFreqPolicy(
                        f, freq::PStateLadder(configByName(c).pstates));
        },
        .apply = [](const GridPoint &pt, FleetConfig &fc) {
            fc.server.freqPolicy = pt.freqPolicy;
        }}),
    bind<&Spec::sloUs, &GridPoint::sloUs, &Query::sloUs>({
        .key = "slo_us", .column = 4, .optionalColumn = true,
        .label = "slo%gus", .cell = "%g", .heading = "slo us",
        .flag = "--slo", .metavar = "N,M",
        .help = "per-request latency-SLO levels in us\n"
                "(PM-QoS; 0 = unconstrained)",
        .rule = "latency SLO must be >= 0 us, 0 = unconstrained",
        .apply = [](const GridPoint &pt, FleetConfig &fc) {
            fc.server.sloUs = pt.sloUs;
        }}),
    bind<&Spec::capWatts, &GridPoint::capWatts, &Query::capWatts>({
        .key = "cap_w", .column = 5, .optionalColumn = true,
        .label = "cap%gW", .cell = "%g", .heading = "cap W",
        .flag = "--caps", .metavar = "N,M",
        .help = "package power-cap levels in watts\n"
                "(0 = uncapped; docs/POWERCAP.md)",
        .rule = "package budget must be >= 0 W, 0 = uncapped",
        .apply = [](const GridPoint &pt, FleetConfig &fc) {
            fc.server.cap.capWatts = pt.capWatts;
        }}),
    bind<&Spec::policies, &GridPoint::policy, &Query::policy>({
        .key = "policy", .column = 6,
        .heading = "policy", .flag = "--policies",
        .help = "routing policies (fleet mode only;\n"
                "default round-robin)",
        .assign = [](const Spec &s, std::size_t i, GridPoint &pt) {
            pt.policy = s.fleetSizes.empty() ? ""
                        : s.policies.empty() ? "round-robin"
                                             : s.policies[i];
        },
        .check = [](const Axis &, const Spec &s) {
            if (s.fleetSizes.empty() && !s.policies.empty())
                sim::fatal("ExperimentSpec '%s': routing policies "
                           "require a fleet-size axis",
                           s.name.c_str());
            for (const auto &p : s.policies)
                cluster::makeRoutingPolicy(p, 1);
        },
        .apply = [](const GridPoint &pt, FleetConfig &fc) {
            fc.routing = pt.policy;
        }}),
    bind<&Spec::fleetSizes, &GridPoint::servers, &Query::servers>({
        .key = "servers", .column = 8,
        .label = "K%u", .cell = "%u", .heading = "K",
        .flag = "--fleet", .metavar = "N,M",
        .help = "fleet sizes; omit for single-server",
        .positive = true, .rule = "need at least 1 server",
        .apply = [](const GridPoint &pt, FleetConfig &fc) {
            fc.servers = pt.servers;
        }}),
    bind<&Spec::qps, &GridPoint::qps, &Query::qps>({
        .key = "qps", .column = 9, .required = true,
        .label = "%.0fqps", .cell = "%.0f", .heading = "qps",
        .flag = "--qps", .metavar = "N,M",
        .help = "offered load levels (default 100000)",
        .positive = true, .rule = "offered load must be positive",
        .assign = [](const Spec &s, std::size_t i, GridPoint &pt) {
            pt.qps = s.qpsPerServer ? s.qps[i] * pt.servers : s.qps[i];
        }}),
    bind<&Spec::variants, &GridPoint::variant, &Query::variant>({
        .key = "variant", .column = 7}),
    bind<&Spec::replicas, &GridPoint::replica, &Query::replica>({
        .key = "replica", .column = 10, .required = true,
        .label = "r%u", .cell = "%u", .heading = "rep",
        .flag = "--replicas", .metavar = "N",
        .help = "seed replicas per point (default 1)",
        .positive = true, .rule = "need at least 1 replica"}),
};

} // namespace

std::size_t
Axis::count(const Spec &spec) const
{
    return required ? size(spec) : std::max<std::size_t>(1, size(spec));
}

bool
Axis::shown(const GridPoint &pt) const
{
    const auto set = [](auto v) {
        if constexpr (std::is_pointer_v<decltype(v)>)
            return !v->empty();
        else
            return v != 0;
    };
    return required || std::visit(set, value(pt));
}

std::string
Axis::format(const char *fmt, const GridPoint &pt) const
{
    const auto render = [fmt](auto v) {
        if constexpr (std::is_pointer_v<decltype(v)>)
            return sim::strprintf(fmt, v->c_str());
        else
            return sim::strprintf(fmt, v);
    };
    return std::visit(render, value(pt));
}

std::span<const Axis>
axes()
{
    return kAxes;
}

const Axis &
axis(std::string_view key)
{
    for (const Axis &a : kAxes)
        if (key == a.key)
            return a;
    sim::fatal("unknown sweep axis '%.*s'",
               static_cast<int>(key.size()), key.data());
}

unsigned
parseUnsigned(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-' ||
        errno == ERANGE || v > std::numeric_limits<unsigned>::max())
        sim::fatal("%s: bad value '%s'", flag, value);
    return static_cast<unsigned>(v);
}

double
parseDouble(const char *flag, const char *value)
{
    char *end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(v))
        sim::fatal("%s: bad value '%s'", flag, value);
    return v;
}

std::uint64_t
parseUint64(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-' ||
        errno == ERANGE)
        sim::fatal("%s: bad value '%s'", flag, value);
    return v;
}

} // namespace aw::exp
