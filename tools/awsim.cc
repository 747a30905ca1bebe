/**
 * @file
 * awsim -- command-line driver for the AgileWatts server simulator.
 *
 * Runs one workload x configuration x load point and prints the
 * full result record. Example:
 *
 *   awsim --workload memcached --config aw --qps 100000 \
 *         --seconds 2 --seed 7
 *
 * With --fleet N the same workload drives a cluster of N servers
 * behind a routing policy (see src/cluster/):
 *
 *   awsim --fleet 8 --route pack-first --config aw --qps 400000
 *
 * Run `awsim --help` for the knob list.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "analysis/observers.hh"
#include "analysis/power_model.hh"
#include "analysis/sampler.hh"
#include "analysis/table.hh"
#include "analysis/trace.hh"
#include "cluster/fleet.hh"
#include "exp/axis.hh"
#include "exp/emit.hh"
#include "exp/spec.hh"
#include "server/server_sim.hh"
#include "sim/logging.hh"
#include "workload/profiles.hh"
#include "workload/trace.hh"

namespace {

using namespace aw;
using exp::configByName;
using exp::parseDouble;
using exp::parseUint64;
using exp::parseUnsigned;
using exp::profileByName;

void
usage()
{
    std::printf(
        "awsim -- AgileWatts C-state server simulator\n\n"
        "  --workload NAME   memcached|mysql|kafka|specpower|nginx|"
        "spark|hive\n"
        "  --config NAME     baseline|aw|nt_baseline|nt_no_c6|"
        "nt_no_c6_no_c1e|nt_aw|\n"
        "                    t_no_c6|t_no_c6_no_c1e|t_aw|c1c6|"
        "c1only|aw_c6a\n"
        "  --governor SPEC   idle governor: menu|teo|ladder|"
        "static:<state>|oracle\n"
        "                    (default menu; oracle is single-server "
        "static\n"
        "                    dispatch only)\n"
        "  --freq-governor SPEC  DVFS governor: performance|"
        "powersave|\n"
        "                    ondemand|conservative|racetohalt\n"
        "                    (default: the static operating point)\n"
        "  --slo US          per-request latency SLO in us "
        "(PM-QoS):\n"
        "                    disables idle states too slow to wake\n"
        "                    within it and floors the DVFS ladder\n"
        "  --cap WATTS       RAPL-style package power cap "
        "(0 = uncapped):\n"
        "                    clamps the DVFS ladder, then injects\n"
        "                    forced idle (docs/POWERCAP.md)\n"
        "  --thermal         couple the RC thermal model; trips "
        "feed the\n"
        "                    same throttle ladder as budget "
        "overshoot\n"
        "  --dispatch NAME   request-to-core mapping: "
        "static|packing\n"
        "  --qps N           offered load, requests/s (default "
        "100000)\n"
        "  --seconds S       measured window (default: sized to "
        "the rate)\n"
        "  --warmup S        warmup (default: window/10)\n"
        "  --cores N         core count (default 10)\n"
        "  --seed N          RNG seed (default 42)\n"
        "  --snoops N        snoop probes/s/core (default 0)\n"
        "  --packing         CARB-style packing dispatch\n"
        "  --package         enable PC2/PC6 package states\n"
        "  --pn              run the active state at Pn (0.8 GHz)\n"
        "  --estimate-aw     also print the Eq. 4 AW estimate\n"
        "  --trace FILE      replay inter-arrival gaps from FILE\n"
        "                    (CSV, one gap in us per value; loops)\n"
        "  --timeline FILE   write the run's interval telemetry as\n"
        "                    aw-timeline/3 CSV (docs/TELEMETRY.md)\n"
        "  --timeline-json FILE  the same telemetry as JSON, plus "
        "the\n"
        "                    C-state transition map\n"
        "  --timeline-interval S  sampling interval in sim seconds\n"
        "                    (default 0.01 when a timeline file is "
        "given)\n"
        "  --trace-requests FILE  write per-request spans as "
        "aw-trace/1\n"
        "                    CSV (docs/TRACING.md)\n"
        "  --trace-requests-json FILE  write the tail-latency\n"
        "                    attribution (all/p99/p99.9 cohorts) as "
        "JSON\n"
        "  --trace-chrome FILE  write a Chrome trace_event JSON "
        "loadable\n"
        "                    in Perfetto / chrome://tracing\n"
        "\nfleet mode (--fleet):\n"
        "  --fleet N         simulate N servers behind a balancer\n"
        "  --route NAME      round-robin|random|least-outstanding|"
        "pack-first|\n"
        "                    route-to-headroom (cap-aware: favors "
        "the\n"
        "                    server with the most watt headroom)\n"
        "                    (default round-robin)\n"
        "  --pack-cap N      pack-first spill threshold "
        "(default cores/2)\n"
        "  --diurnal A       sinusoidal diurnal load, amplitude A "
        "in [0,1]\n"
        "  --diurnal-period S  length of one simulated \"day\" "
        "(default 1 s)\n"
        "  --flash SPIKE     flash-crowd load: SPIKE x the base "
        "rate\n"
        "                    for the middle quarter of each "
        "--diurnal-period\n"
        "                    (extra traffic, not renormalized; "
        "excludes\n"
        "                    --diurnal)\n"
        "  --fleet-threads N worker threads for the per-server "
        "phase\n"
        "                    (default 1; results are bit-identical "
        "at any N)\n"
        "  --epoch S         routing-decision epoch length in sim "
        "seconds\n"
        "                    (default: one epoch; results are "
        "identical\n"
        "                    for any value)\n");
}

/** --timeline/--timeline-json/--timeline-interval, resolved. */
struct TimelineOpts
{
    std::string csvPath;
    std::string jsonPath;
    double intervalSeconds = 0.0;

    bool enabled() const
    {
        return !csvPath.empty() || !jsonPath.empty();
    }

    analysis::TimelineConfig config() const
    {
        analysis::TimelineConfig tc;
        tc.intervalSeconds = intervalSeconds;
        return tc;
    }
};

/** --trace-requests/--trace-requests-json/--trace-chrome. */
struct TraceOpts
{
    std::string csvPath;
    std::string jsonPath;
    std::string chromePath;

    bool enabled() const
    {
        return !csvPath.empty() || !jsonPath.empty() ||
               !chromePath.empty();
    }
};

/** Write the requested aw-trace/1 artifacts for one series and
 *  print its tail-attribution summary. */
void
writeRequestTrace(const analysis::TraceSeries &series,
                  const std::string &label, const TraceOpts &tr)
{
    if (!tr.csvPath.empty())
        exp::writeFile(tr.csvPath, analysis::traceCsv(series));
    if (!tr.jsonPath.empty())
        exp::writeFile(tr.jsonPath,
                       analysis::attributionJson(series, label));
    if (!tr.chromePath.empty())
        exp::writeFile(tr.chromePath,
                       analysis::chromeTraceJson(series));

    const auto attr = analysis::attributeTail(series);
    std::printf("\ntrace: spans=%llu dropped=%llu "
                "wake_episodes=%llu\n",
                static_cast<unsigned long long>(attr.spans),
                static_cast<unsigned long long>(attr.dropped),
                static_cast<unsigned long long>(
                    series.wakesEmitted));
    analysis::TableWriter at(
        {"cohort", "count", "wake share", "queue share",
         "service share", "mean wake (us)"});
    const std::pair<const char *, const analysis::CohortStats &>
        cohorts[] = {{"all", attr.all},
                     {"p99", attr.p99},
                     {"p99.9", attr.p999}};
    for (const auto &[name, st] : cohorts) {
        at.addRow({name,
                   analysis::cell("%llu",
                                  static_cast<unsigned long long>(
                                      st.count)),
                   analysis::cell("%.1f%%", 100 * st.wakeShare),
                   analysis::cell("%.1f%%", 100 * st.queueShare),
                   analysis::cell("%.1f%%", 100 * st.serviceShare),
                   analysis::cell("%.2f", st.meanWakeUs)});
    }
    at.print();
}

/** Write the requested aw-timeline/3 artifacts for one series. */
void
writeTimeline(const analysis::TimelineSeries &series,
              const std::string &label, const TimelineOpts &tl)
{
    if (!tl.csvPath.empty())
        exp::writeFile(tl.csvPath, analysis::timelineCsv(series));
    if (!tl.jsonPath.empty())
        exp::writeFile(tl.jsonPath,
                       analysis::timelineJson(series, label));
    std::printf("\ntimeline: intervals=%llu dropped=%llu%s%s%s%s\n",
                static_cast<unsigned long long>(series.emitted),
                static_cast<unsigned long long>(series.dropped),
                tl.csvPath.empty() ? "" : " csv=",
                tl.csvPath.c_str(),
                tl.jsonPath.empty() ? "" : " json=",
                tl.jsonPath.c_str());
}

void
runFleet(const cluster::FleetConfig &fleet_cfg,
         const workload::WorkloadProfile &profile, double qps,
         double seconds, double warmup,
         const std::string &trace_path, const TimelineOpts &tl,
         const TraceOpts &tr)
{
    // A replayed trace defines the offered rate, like the
    // single-server path.
    std::optional<workload::ArrivalTrace> trace;
    if (!trace_path.empty()) {
        trace = workload::ArrivalTrace::loadCsv(trace_path);
        qps = trace->meanRatePerSec();
    }
    cluster::FleetSim fleet(fleet_cfg, profile, qps);
    if (trace)
        fleet.setArrivalTrace(std::move(*trace));
    if (tl.enabled())
        fleet.enableTimeline(tl.config());
    if (tr.enabled())
        fleet.enableRequestTrace(analysis::TraceConfig{});

    const auto r =
        seconds > 0.0
            ? fleet.run(sim::fromSec(seconds),
                        sim::fromSec(warmup >= 0.0 ? warmup
                                                   : seconds / 10.0))
            : fleet.run();

    std::string dvfs_note;
    if (!fleet_cfg.server.freqPolicy.empty())
        dvfs_note += " freq=" + fleet_cfg.server.freqPolicy;
    if (fleet_cfg.server.sloUs > 0.0)
        dvfs_note +=
            sim::strprintf(" slo=%gus", fleet_cfg.server.sloUs);
    if (fleet_cfg.server.cap.capWatts > 0.0)
        dvfs_note += sim::strprintf(" cap=%gW",
                                    fleet_cfg.server.cap.capWatts);
    if (fleet_cfg.server.cap.thermalEnabled)
        dvfs_note += " thermal";
    std::printf("fleet=%u route=%s workload=%s config=%s "
                "governor=%s qps=%.0f seed=%llu%s%s\n\n",
                r.servers, r.routingName.c_str(),
                r.workloadName.c_str(), r.configName.c_str(),
                fleet_cfg.server.governor.c_str(), r.offeredQps,
                static_cast<unsigned long long>(fleet_cfg.seed),
                fleet_cfg.schedule.isFlat() ? "" : " diurnal",
                dvfs_note.c_str());

    analysis::TableWriter t({"metric", "value"});
    t.addRow({"window (s)",
              analysis::cell("%.3f", sim::toSec(r.window))});
    t.addRow({"requests", analysis::cell(
                              "%llu", static_cast<unsigned long long>(
                                          r.requests))});
    t.addRow({"achieved qps",
              analysis::cell("%.0f", r.achievedQps)});
    t.addRow({"fleet power (W)",
              analysis::cell("%.2f", r.fleetPower)});
    t.addRow({"fleet energy (J)",
              analysis::cell("%.2f", r.fleetEnergy)});
    t.addRow({"energy/request (mJ)",
              analysis::cell("%.3f", r.energyPerRequestMj)});
    t.addRow({"avg latency (us)",
              analysis::cell("%.2f", r.avgLatencyUs)});
    t.addRow({"p99 latency (us)",
              analysis::cell("%.2f", r.p99LatencyUs)});
    t.addRow({"p99.9 latency (us)",
              analysis::cell("%.2f", r.p999LatencyUs)});
    t.addRow({"deep idle (C6 family)",
              analysis::cell("%.1f%%", 100 * r.deepIdleShare)});
    t.addRow({"deep idle spread",
              analysis::cell("%.1f%% .. %.1f%%",
                             100 * r.minServerDeepShare,
                             100 * r.maxServerDeepShare)});
    t.addRow({"busiest server load share",
              analysis::cell("%.1f%%", 100 * r.busiestShareOfLoad)});
    if (fleet_cfg.server.cap.enabled()) {
        t.addRow({"cap throttled",
                  analysis::cell("%.1f%%",
                                 100 * r.capThrottleShare)});
        t.addRow({"forced-idle naps",
                  analysis::cell("%llu",
                                 static_cast<unsigned long long>(
                                     r.forcedIdleNaps))});
        if (fleet_cfg.server.cap.thermalEnabled)
            t.addRow({"max temp (C)",
                      analysis::cell("%.1f", r.maxTempC)});
    }
    t.print();

    std::printf("\nper-server:\n");
    analysis::TableWriter ps({"server", "routed", "completed",
                              "pkg W", "deep idle", "p99 (us)"});
    for (unsigned i = 0; i < r.servers; ++i) {
        const auto &s = r.perServer[i];
        ps.addRow({analysis::cell("%u", i),
                   analysis::cell("%llu",
                                  static_cast<unsigned long long>(
                                      r.routedPerServer[i])),
                   analysis::cell("%llu",
                                  static_cast<unsigned long long>(
                                      s.requests)),
                   analysis::cell("%.2f", s.packagePower),
                   analysis::cell(
                       "%.1f%%",
                       100 * cluster::deepIdleShare(s.residency)),
                   analysis::cell("%.1f", s.p99LatencyUs)});
    }
    ps.print();

    const std::string label =
        sim::strprintf("fleet%u/%s/%s/%.0fqps", r.servers,
                       r.workloadName.c_str(), r.configName.c_str(),
                       r.offeredQps);
    if (tl.enabled())
        writeTimeline(*r.timeline, label, tl);
    if (tr.enabled())
        writeRequestTrace(*r.trace, label, tr);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name = "memcached";
    std::string config_name = "baseline";
    std::string governor; //!< empty = config default ("menu")
    std::string freq_governor; //!< empty = static operating point
    double slo_us = 0.0;  //!< 0 = unconstrained
    double cap_watts = 0.0; //!< 0 = uncapped
    bool thermal = false;
    std::string dispatch; //!< empty = config default ("static")
    double qps = 100e3;
    double seconds = 0.0;
    double warmup = -1.0;
    unsigned cores = 10;
    std::uint64_t seed = 42;
    double snoops = 0.0;
    bool packing = false;
    bool package = false;
    bool pn = false;
    bool estimate_aw = false;
    std::string trace_path;
    unsigned fleet = 0;
    std::string route = "round-robin";
    unsigned pack_cap = 0;
    double diurnal = 0.0;
    double diurnal_period = 1.0;
    double flash = 0.0;
    unsigned fleet_threads = 1;
    double epoch_seconds = 0.0;
    TimelineOpts timeline;
    TraceOpts reqtrace;
    const char *fleet_flag = nullptr; //!< last fleet-only flag seen

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                sim::fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--workload") {
            workload_name = next("--workload");
        } else if (arg == "--config") {
            config_name = next("--config");
        } else if (arg == "--governor") {
            governor = next("--governor");
        } else if (arg == "--freq-governor") {
            freq_governor = next("--freq-governor");
        } else if (arg == "--slo") {
            slo_us = parseDouble("--slo", next("--slo"));
            if (slo_us <= 0.0)
                sim::fatal("--slo: latency SLO must be a positive "
                           "number of microseconds (got %g)",
                           slo_us);
        } else if (arg == "--cap") {
            cap_watts = parseDouble("--cap", next("--cap"));
            if (cap_watts < 0.0)
                sim::fatal("--cap: package budget must be >= 0 "
                           "watts (0 = uncapped; got %g)",
                           cap_watts);
        } else if (arg == "--thermal") {
            thermal = true;
        } else if (arg == "--dispatch") {
            dispatch = next("--dispatch");
        } else if (arg == "--qps") {
            qps = parseDouble("--qps", next("--qps"));
            if (qps <= 0.0)
                sim::fatal("--qps: offered load must be positive "
                           "(got %g)",
                           qps);
        } else if (arg == "--seconds") {
            seconds = parseDouble("--seconds", next("--seconds"));
            if (seconds < 0.0)
                sim::fatal("--seconds: window must be >= 0 "
                           "(0 = auto-sized; got %g)",
                           seconds);
        } else if (arg == "--warmup") {
            warmup = parseDouble("--warmup", next("--warmup"));
            if (warmup < 0.0)
                sim::fatal("--warmup: must be >= 0 (omit the flag "
                           "for the window/10 default; got %g)",
                           warmup);
        } else if (arg == "--cores") {
            cores = parseUnsigned("--cores", next("--cores"));
            if (cores == 0)
                sim::fatal("--cores: need at least 1 core");
        } else if (arg == "--seed") {
            seed = parseUint64("--seed", next("--seed"));
        } else if (arg == "--snoops") {
            snoops = parseDouble("--snoops", next("--snoops"));
            if (snoops < 0.0)
                sim::fatal("--snoops: rate must be >= 0 (got %g)",
                           snoops);
        } else if (arg == "--packing") {
            packing = true;
        } else if (arg == "--package") {
            package = true;
        } else if (arg == "--pn") {
            pn = true;
        } else if (arg == "--estimate-aw") {
            estimate_aw = true;
        } else if (arg == "--trace") {
            trace_path = next("--trace");
        } else if (arg == "--timeline") {
            timeline.csvPath = next("--timeline");
        } else if (arg == "--timeline-json") {
            timeline.jsonPath = next("--timeline-json");
        } else if (arg == "--trace-requests") {
            reqtrace.csvPath = next("--trace-requests");
        } else if (arg == "--trace-requests-json") {
            reqtrace.jsonPath = next("--trace-requests-json");
        } else if (arg == "--trace-chrome") {
            reqtrace.chromePath = next("--trace-chrome");
        } else if (arg == "--timeline-interval") {
            timeline.intervalSeconds = parseDouble(
                "--timeline-interval", next("--timeline-interval"));
            if (timeline.intervalSeconds <= 0.0)
                sim::fatal("--timeline-interval: must be positive");
        } else if (arg == "--fleet") {
            fleet = parseUnsigned("--fleet", next("--fleet"));
            if (fleet == 0)
                sim::fatal("--fleet: need at least 1 server");
        } else if (arg == "--route") {
            route = next("--route");
            fleet_flag = "--route";
        } else if (arg == "--pack-cap") {
            pack_cap =
                parseUnsigned("--pack-cap", next("--pack-cap"));
            fleet_flag = "--pack-cap";
        } else if (arg == "--diurnal") {
            diurnal = parseDouble("--diurnal", next("--diurnal"));
            fleet_flag = "--diurnal";
        } else if (arg == "--diurnal-period") {
            diurnal_period = parseDouble("--diurnal-period",
                                         next("--diurnal-period"));
            fleet_flag = "--diurnal-period";
        } else if (arg == "--flash") {
            flash = parseDouble("--flash", next("--flash"));
            if (flash <= 0.0)
                sim::fatal("--flash: spike multiplier must be "
                           "positive (got %g)",
                           flash);
            fleet_flag = "--flash";
        } else if (arg == "--fleet-threads") {
            fleet_threads = parseUnsigned("--fleet-threads",
                                          next("--fleet-threads"));
            if (fleet_threads == 0)
                sim::fatal("--fleet-threads: need at least 1 "
                           "worker thread");
            fleet_flag = "--fleet-threads";
        } else if (arg == "--epoch") {
            epoch_seconds = parseDouble("--epoch", next("--epoch"));
            if (epoch_seconds <= 0.0)
                sim::fatal("--epoch: epoch length must be positive "
                           "(omit the flag for one epoch spanning "
                           "the run; got %g)",
                           epoch_seconds);
            fleet_flag = "--epoch";
        } else {
            usage();
            sim::fatal("unknown argument '%s'", arg.c_str());
        }
    }

    auto profile = profileByName(workload_name);
    auto cfg = configByName(config_name);
    cfg.cores = cores;
    cfg.seed = seed;
    cfg.snoopRatePerSec = snoops;
    cfg.runAtPn = pn;
    cfg.packageCStatesEnabled = package;
    if (!governor.empty())
        cfg.governor = governor;
    if (!freq_governor.empty())
        cfg.freqPolicy = freq_governor;
    cfg.sloUs = slo_us;
    cfg.cap.capWatts = cap_watts;
    cfg.cap.thermalEnabled = thermal;
    if (packing && !dispatch.empty() && dispatch != "packing")
        sim::fatal("--packing conflicts with --dispatch %s",
                   dispatch.c_str());
    if (packing)
        cfg.dispatch = server::DispatchPolicy::Packing;
    if (!dispatch.empty())
        cfg.dispatch = server::dispatchPolicyByName(dispatch);

    if (fleet == 0 && fleet_flag)
        sim::fatal("%s requires --fleet N", fleet_flag);
    if (timeline.enabled() && timeline.intervalSeconds <= 0.0)
        timeline.intervalSeconds = 0.01;
    if (!timeline.enabled() && timeline.intervalSeconds > 0.0)
        sim::fatal("--timeline-interval needs --timeline or "
                   "--timeline-json");
    if (diurnal < 0.0 || diurnal > 1.0)
        sim::fatal("--diurnal: amplitude must be in [0, 1]");
    if ((diurnal > 0.0 || flash > 0.0) && diurnal_period <= 0.0)
        sim::fatal("--diurnal-period: must be positive");
    if (diurnal > 0.0 && flash > 0.0)
        sim::fatal("--flash conflicts with --diurnal (pick one "
                   "load shape)");
    if (fleet > 0) {
        cluster::FleetConfig fc;
        fc.servers = fleet;
        fc.server = cfg;
        // Fleet runs model cpuidle's tick re-selection so spare
        // servers sink to the deepest state (see docs/FLEET.md).
        fc.server.idlePromotion = true;
        fc.routing = route;
        fc.packCapacity = pack_cap;
        fc.seed = seed;
        fc.fleetThreads = fleet_threads;
        fc.epochSeconds = epoch_seconds;
        if (diurnal > 0.0)
            fc.schedule = cluster::RateSchedule::sinusoidal(
                sim::fromSec(diurnal_period), diurnal);
        else if (flash > 0.0)
            fc.schedule = cluster::RateSchedule::flashCrowd(
                sim::fromSec(diurnal_period), flash);
        runFleet(fc, profile, qps, seconds, warmup, trace_path,
                 timeline, reqtrace);
        return 0;
    }

    std::unique_ptr<server::ServerSim> srv_owner;
    if (!trace_path.empty()) {
        auto trace = workload::ArrivalTrace::loadCsv(trace_path);
        qps = trace.meanRatePerSec();
        srv_owner = std::make_unique<server::ServerSim>(
            cfg, profile,
            std::make_unique<workload::TraceArrivals>(
                std::move(trace), /*loop=*/true));
    } else {
        srv_owner = std::make_unique<server::ServerSim>(cfg, profile,
                                                        qps);
    }
    server::ServerSim &srv = *srv_owner;
    analysis::ServerTelemetry telemetry(
        timeline.enabled() ? std::optional(timeline.config())
                           : std::nullopt,
        reqtrace.enabled() ? std::optional(analysis::TraceConfig{})
                           : std::nullopt,
        cfg.cores);
    telemetry.attach(srv);
    const auto r =
        seconds > 0.0
            ? srv.run(sim::fromSec(seconds),
                      sim::fromSec(warmup >= 0.0 ? warmup
                                                 : seconds / 10.0))
            : srv.run();

    std::string dvfs_note;
    if (!cfg.freqPolicy.empty())
        dvfs_note += " freq=" + cfg.freqPolicy;
    if (cfg.sloUs > 0.0)
        dvfs_note += sim::strprintf(" slo=%gus", cfg.sloUs);
    if (cfg.cap.capWatts > 0.0)
        dvfs_note += sim::strprintf(" cap=%gW", cfg.cap.capWatts);
    if (cfg.cap.thermalEnabled)
        dvfs_note += " thermal";
    std::printf("workload=%s config=%s governor=%s dispatch=%s "
                "qps=%.0f cores=%u seed=%llu%s%s%s\n\n",
                r.workloadName.c_str(), r.configName.c_str(),
                cfg.governor.c_str(), server::name(cfg.dispatch),
                r.offeredQps, cores,
                static_cast<unsigned long long>(seed),
                package ? " package" : "", pn ? " pn" : "",
                dvfs_note.c_str());

    analysis::TableWriter t({"metric", "value"});
    t.addRow({"window (s)", analysis::cell("%.3f",
                                           sim::toSec(r.window))});
    t.addRow({"requests", analysis::cell(
                              "%llu", static_cast<unsigned long long>(
                                          r.requests))});
    t.addRow({"achieved qps", analysis::cell("%.0f",
                                             r.achievedQps)});
    t.addRow({"avg core power (W)",
              analysis::cell("%.4f", r.avgCorePower)});
    t.addRow({"package power (W)",
              analysis::cell("%.2f", r.packagePower)});
    t.addRow({"core energy (J)",
              analysis::cell("%.2f", r.coreEnergy)});
    t.addRow({"avg latency (us)",
              analysis::cell("%.2f", r.avgLatencyUs)});
    t.addRow({"p99 latency (us)",
              analysis::cell("%.2f", r.p99LatencyUs)});
    t.addRow({"p99.9 latency (us)",
              analysis::cell("%.2f", r.p999LatencyUs)});
    t.addRow({"avg latency e2e (us)",
              analysis::cell("%.2f", r.avgLatencyE2eUs)});
    t.addRow({"transitions/request",
              analysis::cell("%.3f", r.transitionsPerRequest)});
    t.addRow({"mispredicted entries",
              analysis::cell("%llu",
                             static_cast<unsigned long long>(
                                 r.mispredictedEntries))});
    if (!cfg.freqPolicy.empty()) {
        t.addRow({"P-state ramps",
                  analysis::cell("%llu",
                                 static_cast<unsigned long long>(
                                     r.freqTransitions))});
        t.addRow({"ramp energy (J)",
                  analysis::cell("%.4f", r.freqTransitionEnergyJ)});
    }
    if (cfg.cap.enabled()) {
        t.addRow({"cap throttled",
                  analysis::cell("%.1f%%",
                                 100 * r.capThrottleShare)});
        t.addRow({"forced-idle naps",
                  analysis::cell("%llu",
                                 static_cast<unsigned long long>(
                                     r.forcedIdleNaps))});
        if (cfg.cap.thermalEnabled)
            t.addRow({"max temp (C)",
                      analysis::cell("%.1f", r.maxTempC)});
    }
    t.print();

    std::printf("\nresidency: ");
    for (std::size_t i = 0; i < cstate::kNumCStates; ++i) {
        const auto id = static_cast<cstate::CStateId>(i);
        const double share = r.residency.shareOf(id);
        if (share > 0.0005)
            std::printf("%s=%.1f%% ", cstate::name(id),
                        100.0 * share);
    }
    std::printf("\n");
    if (package) {
        std::printf("package:   PC0=%.1f%% PC2=%.1f%% PC6=%.1f%% "
                    "uncore=%.2fW\n",
                    100 * r.pkgResidency[0], 100 * r.pkgResidency[1],
                    100 * r.pkgResidency[2], r.avgUncorePower);
    }

    const std::string run_label = sim::strprintf(
        "%s/%s/%.0fqps", r.workloadName.c_str(),
        r.configName.c_str(), r.offeredQps);
    if (telemetry.recorder)
        writeTimeline(telemetry.recorder->series(), run_label, timeline);
    if (telemetry.tracer)
        writeRequestTrace(telemetry.tracer->series(), run_label,
                          reqtrace);

    if (estimate_aw) {
        core::AwCoreModel aw_model;
        const analysis::CStatePowerModel model(
            server::StatePowers::fromModels(aw_model.ppa()));
        std::printf("\nEq. 4 AW savings estimate from this run's "
                    "residencies: %.1f%%\n",
                    100.0 * model.awSavingsVsMeasured(
                                r.residency, r.avgCorePower));
    }
    return 0;
}
