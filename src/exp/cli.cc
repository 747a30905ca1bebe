#include "exp/cli.hh"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

#include "cluster/routing.hh"
#include "cstate/governors.hh"
#include "exp/axis.hh"
#include "freq/policies.hh"
#include "server/config.hh"
#include "sim/logging.hh"
#include "workload/trace.hh"

namespace aw::exp {

namespace {

using Setter = std::function<void(const char *, const char *)>;

/** @{ Row actions: store the value in @p dst once it is valid. */
Setter
on(bool &dst)
{
    return [&dst](const char *, const char *) { dst = true; };
}

Setter
text(std::string &dst)
{
    return [&dst](const char *, const char *v) { dst = v; };
}

/** A path; storing it also runs @p arm, which enables what writes
 *  the file. */
Setter
file(std::string &dst, std::function<void()> arm)
{
    return [&dst, arm](const char *, const char *v) {
        dst = v;
        arm();
    };
}

/** A number > 0, or >= 0 when @p zero_ok; otherwise fatal()
 *  "<flag>: <rule> (got <v>)". */
Setter
real(double &dst, bool zero_ok, const char *rule)
{
    return [&dst, zero_ok, rule](const char *flag, const char *v) {
        dst = parseDouble(flag, v);
        if (zero_ok ? dst < 0.0 : dst <= 0.0)
            sim::fatal("%s: %s (got %g)", flag, rule, dst);
    };
}

Setter
positive(double &dst, const char *rule)
{
    return real(dst, false, rule);
}

Setter
nonNegative(double &dst, const char *rule)
{
    return real(dst, true, rule);
}

/** A count; 0 is fatal() "<flag>: <rule>". */
Setter
count(unsigned &dst, const char *rule)
{
    return [&dst, rule](const char *flag, const char *v) {
        dst = parseUnsigned(flag, v);
        if (dst == 0)
            sim::fatal("%s: %s", flag, rule);
    };
}
/** @} */

constexpr const char *kNeedsFleet = "requires --fleet N";

/** The flags awsim and awsweep share: run shaping lands in @p s,
 *  artifact paths in @p o. @p fleet says whether the tool's --fleet
 *  was given. */
FlagTable
sharedFlags(ExperimentSpec &s, SharedFlags &o,
            const std::function<bool()> &fleet)
{
    // A timeline file arms the sampler at 10 ms unless
    // --timeline-interval chose another interval.
    const auto timeline = [&s] {
        if (s.timelineIntervalSeconds == 0.0)
            s.timelineIntervalSeconds = 0.01;
    };
    const auto trace = [&s] { s.traceRequests = true; };
    return {
        {.name = "--seconds", .metavar = "S",
         .help = "measured window (default: sized to the rate)",
         .set = nonNegative(s.seconds,
                            "window must be >= 0, 0 = auto-sized")},
        {.name = "--warmup", .metavar = "S",
         .help = "warmup (default: window/10)",
         .set = nonNegative(s.warmupSeconds,
                            "must be >= 0; omit the flag for the "
                            "window/10 default")},
        {.name = "--cores", .metavar = "N",
         .help = "cores per server (default: the config's count)",
         .set = count(s.cores, "need at least 1 core; omit the flag "
                               "for the config's count")},
        {.name = "--seed", .metavar = "N",
         .help = "top-level RNG seed (default 42)",
         .set = [&s](const char *flag, const char *v) {
             s.seed = parseUint64(flag, v);
         }},
        {.name = "--dispatch", .metavar = "NAME",
         .help = "request-to-core mapping: static|packing\n"
                 "(default: the config's)",
         .names = server::dispatchPolicyNames,
         .set = text(s.dispatch)},
        {.name = "--thermal",
         .help = "couple the RC thermal model; trips feed the\n"
                 "same throttle ladder as budget overshoot",
         .set = on(s.thermal)},
        {.name = "--fleet-threads", .metavar = "N",
         .help = "worker threads for a fleet's per-server phase\n"
                 "(default 1; results are bit-identical at any N)",
         .set = count(s.fleetThreads, "need at least 1 worker thread"),
         .needs = kNeedsFleet, .met = fleet},
        {.name = "--epoch", .metavar = "S",
         .help = "routing-decision epoch length in sim seconds\n"
                 "(default: one epoch; results are identical\n"
                 "for any value)",
         .set = positive(s.epochSeconds,
                         "epoch length must be positive; omit the "
                         "flag for one epoch spanning the run"),
         .needs = kNeedsFleet, .met = fleet},
        {.name = "--timeline", .metavar = "FILE",
         .help = "write the interval telemetry as\n"
                 "aw-timeline/3 CSV (docs/TELEMETRY.md)",
         .set = file(o.timelineCsv, timeline)},
        {.name = "--timeline-json", .metavar = "FILE",
         .help = "the same telemetry as JSON, plus the\n"
                 "C-state transition maps",
         .set = file(o.timelineJson, timeline)},
        {.name = "--timeline-interval", .metavar = "S",
         .help = "sampling interval in sim seconds\n"
                 "(default 0.01 when a timeline file is given)",
         .set = positive(s.timelineIntervalSeconds, "must be positive"),
         .needs = "needs --timeline or --timeline-json",
         .met = [&o] {
             return !o.timelineCsv.empty() || !o.timelineJson.empty();
         }},
        {.name = "--trace-requests", .metavar = "FILE",
         .help = "trace every request and write aw-trace/1 CSV:\n"
                 "a run's spans, or each sweep point's tail\n"
                 "attribution (docs/TRACING.md)",
         .set = file(o.traceCsv, trace)},
        {.name = "--trace-requests-json", .metavar = "FILE",
         .help = "write the tail-latency attribution\n"
                 "(all/p99/p99.9 cohorts) as JSON",
         .set = file(o.traceJson, trace)},
    };
}

/** @p rows, each row without an action replaced by the shared flag
 *  of its name, which opens the row's section, if it names one. */
FlagTable
withShared(ExperimentSpec &s, SharedFlags &o,
           const std::function<bool()> &fleet, FlagTable rows)
{
    const FlagTable shared = sharedFlags(s, o, fleet);
    for (Flag &row : rows) {
        if (row.set)
            continue;
        const auto it = std::find_if(
            shared.begin(), shared.end(), [&row](const Flag &f) {
                return std::string_view(f.name) == row.name;
            });
        if (it == shared.end())
            sim::panic("flag %s has no action", row.name);
        const char *section = row.section;
        row = *it;
        row.section = section;
    }
    return rows;
}

void
printUsage(const char *title, const FlagTable &flags)
{
    std::printf("%s\n\n", title);
    for (const Flag &f : flags) {
        if (f.section)
            std::printf("%s%s\n", &f == &flags.front() ? "" : "\n",
                        f.section);
        std::string left = f.name;
        if (f.metavar)
            left += std::string(" ") + f.metavar;
        std::printf("  %-17s%s", left.c_str(),
                    left.size() > 17 ? "  " : " ");
        for (const char *c = f.help; *c; ++c) {
            if (*c == '\n')
                std::printf("\n%20s", "");
            else
                std::putchar(*c);
        }
        std::printf("\n");
    }
}

} // namespace

bool
parseFlags(int argc, char **argv, const char *title,
           const FlagTable &flags)
{
    // Each row's values in argv order, applied in table order.
    std::vector<std::vector<const char *>> values(flags.size());
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(title, flags);
            return false;
        }
        const auto row = std::find_if(
            flags.begin(), flags.end(),
            [arg](const Flag &f) { return arg == f.name; });
        if (row == flags.end()) {
            printUsage(title, flags);
            sim::fatal("unknown argument '%s'", argv[i]);
        }
        if (row->metavar && i + 1 >= argc)
            sim::fatal("%s needs a value", row->name);
        values[row - flags.begin()].push_back(
            row->metavar ? argv[++i] : nullptr);
    }
    for (std::size_t i = 0; i < flags.size(); ++i)
        for (const char *v : values[i])
            flags[i].set(flags[i].name, v);
    for (std::size_t i = 0; i < flags.size(); ++i)
        if (!values[i].empty() && flags[i].needs && !flags[i].met())
            sim::fatal("%s %s", flags[i].name, flags[i].needs);
    return true;
}

FlagTable
awsimFlags(SimArgs &a)
{
    auto &fc = a.run.fleet;
    auto &cfg = fc.server;
    const auto fleet = [&a] { return a.run.fleet.servers > 0; };
    return withShared(a.shaping, a.shared, fleet, {
        {.name = "--workload", .metavar = "NAME",
         .help = "memcached|mysql|kafka|specpower|nginx|spark|hive",
         .names = workloadNames,
         .set = [&a](const char *, const char *v) {
             a.run.profile = profileByName(v);
         }},
        {.name = "--config", .metavar = "NAME",
         .help = "baseline|aw|nt_baseline|nt_no_c6|nt_no_c6_no_c1e|"
                 "nt_aw|\nt_no_c6|t_no_c6_no_c1e|t_aw|c1c6|c1only|"
                 "aw_c6a",
         .names = configNames,
         .set = [&a](const char *, const char *v) {
             a.run.fleet.server = configByName(v);
         }},
        {.name = "--governor", .metavar = "SPEC",
         .help = "idle governor: menu|teo|ladder|static:<state>|"
                 "oracle\n(default menu; oracle is single-server "
                 "static\ndispatch only)",
         .names = cstate::governorKinds, .set = text(cfg.governor)},
        {.name = "--freq-governor", .metavar = "SPEC",
         .help = "DVFS governor: performance|powersave|\n"
                 "ondemand|conservative|racetohalt\n"
                 "(default: the static operating point)",
         .names = freq::freqPolicyKinds, .set = text(cfg.freqPolicy)},
        {.name = "--slo", .metavar = "US",
         .help = "per-request latency SLO in us (PM-QoS):\n"
                 "disables idle states too slow to wake\n"
                 "within it and floors the DVFS ladder",
         .set = positive(cfg.sloUs, "latency SLO must be a positive "
                                    "number of microseconds")},
        {.name = "--cap", .metavar = "WATTS",
         .help = "RAPL-style package power cap (0 = uncapped):\n"
                 "clamps the DVFS ladder, then injects\n"
                 "forced idle (docs/POWERCAP.md)",
         .set = nonNegative(cfg.cap.capWatts,
                            "package budget must be >= 0 W, 0 = "
                            "uncapped")},
        {.name = "--thermal"},
        {.name = "--dispatch"},
        {.name = "--qps", .metavar = "N",
         .help = "offered load, requests/s (default 100000)",
         .set = positive(a.run.qps, "offered load must be positive")},
        {.name = "--seconds"},
        {.name = "--warmup"},
        {.name = "--cores"},
        {.name = "--seed"},
        {.name = "--snoops", .metavar = "N",
         .help = "snoop probes/s/core (default 0)",
         .set = nonNegative(cfg.snoopRatePerSec, "rate must be >= 0")},
        {.name = "--package", .help = "enable PC2/PC6 package states",
         .set = on(cfg.packageCStatesEnabled)},
        {.name = "--pn", .help = "run the active state at Pn (0.8 GHz)",
         .set = on(cfg.runAtPn)},
        {.name = "--estimate-aw",
         .help = "also print the Eq. 4 AW estimate (single\n"
                 "server only)",
         .set = on(a.estimateAw),
         .needs = "is single-server only (it reads one server's "
                  "residencies); drop --fleet",
         .met = [&a] { return a.run.fleet.servers == 0; }},
        {.name = "--trace", .metavar = "FILE",
         .help = "replay inter-arrival gaps from FILE\n"
                 "(CSV, one gap in us per value; loops)",
         .set = [&a](const char *, const char *v) {
             a.run.arrivals = workload::ArrivalTrace::loadCsv(v);
         }},
        {.name = "--timeline"},
        {.name = "--timeline-json"},
        {.name = "--timeline-interval"},
        {.name = "--trace-requests"},
        {.name = "--trace-requests-json"},
        {.name = "--trace-chrome", .metavar = "FILE",
         .help = "write a Chrome trace_event JSON loadable\n"
                 "in Perfetto / chrome://tracing",
         .set = file(a.traceChrome,
                     [&a] { a.shaping.traceRequests = true; })},
        {.name = "--fleet", .metavar = "N",
         .help = "simulate N servers behind a balancer",
         .section = "fleet mode (--fleet):",
         .set = count(fc.servers, "need at least 1 server")},
        {.name = "--route", .metavar = "NAME",
         .help = "round-robin|random|least-outstanding|pack-first|\n"
                 "route-to-headroom (cap-aware: favors the\n"
                 "server with the most watt headroom)\n"
                 "(default round-robin)",
         .names = cluster::routingPolicyNames, .set = text(fc.routing),
         .needs = kNeedsFleet, .met = fleet},
        {.name = "--pack-cap", .metavar = "N",
         .help = "pack-first spill threshold (default cores/2;\n"
                 "needs --route pack-first)",
         .set = count(fc.packCapacity,
                      "need at least 1 outstanding request; omit "
                      "the flag for cores/2"),
         .needs = "needs --route pack-first (no other route has a "
                  "spill threshold)",
         .met = [&a] { return a.run.fleet.routing == "pack-first"; }},
        {.name = "--diurnal", .metavar = "A",
         .help = "sinusoidal diurnal load, amplitude A in [0,1]",
         .set = [&a](const char *flag, const char *v) {
             a.diurnal = parseDouble(flag, v);
             if (a.diurnal < 0.0 || a.diurnal > 1.0)
                 sim::fatal("%s: amplitude must be in [0, 1] (got %g)",
                            flag, a.diurnal);
         },
         .needs = kNeedsFleet, .met = fleet},
        {.name = "--diurnal-period", .metavar = "S",
         .help = "length of one simulated \"day\" (default 1 s;\n"
                 "needs --diurnal or --flash)",
         .set = positive(a.diurnalPeriod, "must be positive"),
         .needs = "needs a load shape (--diurnal or --flash)",
         .met = [&a] { return a.diurnal > 0.0 || a.flash > 0.0; }},
        {.name = "--flash", .metavar = "SPIKE",
         .help = "flash-crowd load: SPIKE x the base rate\n"
                 "for the middle quarter of each --diurnal-period\n"
                 "(extra traffic, not renormalized; excludes\n"
                 "--diurnal)",
         .set = positive(a.flash, "spike multiplier must be positive"),
         .needs = kNeedsFleet, .met = fleet},
        {.name = "--fleet-threads"},
        {.name = "--epoch"},
    });
}

FlagTable
awsweepFlags(SweepArgs &a)
{
    FlagTable flags;
    for (const Axis &axis : axes())
        if (axis.flag)
            flags.push_back(
                {.name = axis.flag, .metavar = axis.metavar,
                 .help = axis.help, .names = axis.names,
                 .section = flags.empty()
                                ? "grid axes (comma-separated lists):"
                                : nullptr,
                 .set = [&a, &axis](const char *, const char *v) {
                     axis.parse(axis, a.spec, v);
                 }});
    const auto fleet = [&a] { return !a.spec.fleetSizes.empty(); };
    for (Flag &f : withShared(a.spec, a.shared, fleet, {
        {.name = "--per-server-qps",
         .help = "scale each qps level by the fleet size",
         .section = "run shaping:", .set = on(a.spec.qpsPerServer)},
        {.name = "--seconds"},
        {.name = "--warmup"},
        {.name = "--cores"},
        {.name = "--dispatch"},
        {.name = "--thermal"},
        {.name = "--seed"},
        {.name = "--fleet-threads"},
        {.name = "--epoch"},
        {.name = "--threads", .metavar = "N",
         .help = "worker threads across grid points\n"
                 "(default: hardware)",
         .section = "execution and artifacts:",
         .set = count(a.threads, "need at least 1 worker thread; "
                                 "omit the flag for hardware "
                                 "concurrency")},
        {.name = "--csv", .metavar = "FILE",
         .help = "write the sweep as CSV", .set = text(a.csv)},
        {.name = "--json", .metavar = "FILE",
         .help = "write the sweep as JSON", .set = text(a.json)},
        {.name = "--name", .metavar = "NAME",
         .help = "spec name recorded in the artifacts",
         .set = text(a.spec.name)},
        {.name = "--quiet", .help = "no summary table, just artifacts",
         .set = on(a.quiet)},
        {.name = "--timeline",
         .section = "streaming telemetry (aw-timeline/3, see "
                    "docs/TELEMETRY.md):"},
        {.name = "--timeline-json"},
        {.name = "--timeline-interval"},
        {.name = "--trace-requests",
         .section = "request tracing (aw-trace/1, see "
                    "docs/TRACING.md):"},
        {.name = "--trace-requests-json"},
    }))
        flags.push_back(std::move(f));
    return flags;
}

FlagTable
awperfFlags(PerfArgs &a)
{
    return {
        {.name = "--list", .help = "print the pinned scenarios and exit",
         .set = on(a.list)},
        {.name = "--scenarios", .metavar = "A,B",
         .help = "run only the named scenarios",
         .set = [&a](const char *, const char *v) {
             a.scenarios = splitList(v);
         }},
        {.name = "--repeat", .metavar = "N",
         .help = "timed repeats per scenario, keep the\n"
                 "best wall clock (default 3)",
         .set = count(a.repeat, "need at least 1 repeat")},
        {.name = "--json", .metavar = "FILE",
         .help = "write the aw-perf/1 JSON document",
         .set = text(a.json)},
        {.name = "--quiet", .help = "no summary table, just artifacts",
         .set = on(a.quiet)},
    };
}

} // namespace aw::exp
