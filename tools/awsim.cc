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

#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/power_model.hh"
#include "analysis/sampler.hh"
#include "analysis/table.hh"
#include "analysis/trace.hh"
#include "cluster/fleet.hh"
#include "exp/cli.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "sim/logging.hh"

namespace {

using namespace aw;

/** A counter as a table cell. */
std::string
countCell(std::uint64_t n)
{
    return analysis::cell("%llu", static_cast<unsigned long long>(n));
}

/** Write the requested aw-trace/1 artifacts for one series and
 *  print its tail-attribution summary. */
void
writeRequestTrace(const analysis::TraceSeries &series,
                  const std::string &label, const exp::SimArgs &a)
{
    if (!a.shared.traceCsv.empty())
        exp::writeFile(a.shared.traceCsv, analysis::traceCsv(series));
    if (!a.shared.traceJson.empty())
        exp::writeFile(a.shared.traceJson,
                       analysis::attributionJson(series, label));
    if (!a.traceChrome.empty())
        exp::writeFile(a.traceChrome, analysis::chromeTraceJson(series));

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
                   countCell(st.count),
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
              const std::string &label, const exp::SharedFlags &o)
{
    if (!o.timelineCsv.empty())
        exp::writeFile(o.timelineCsv, analysis::timelineCsv(series));
    if (!o.timelineJson.empty())
        exp::writeFile(o.timelineJson,
                       analysis::timelineJson(series, label));
    std::printf("\ntimeline: intervals=%llu dropped=%llu%s%s%s%s\n",
                static_cast<unsigned long long>(series.emitted),
                static_cast<unsigned long long>(series.dropped),
                o.timelineCsv.empty() ? "" : " csv=",
                o.timelineCsv.c_str(),
                o.timelineJson.empty() ? "" : " json=",
                o.timelineJson.c_str());
}

/** The header's DVFS, SLO and power-cap annotations. */
std::string
dvfsNote(const server::ServerConfig &cfg)
{
    std::string note;
    if (!cfg.freqPolicy.empty())
        note += " freq=" + cfg.freqPolicy;
    if (cfg.sloUs > 0.0)
        note += sim::strprintf(" slo=%gus", cfg.sloUs);
    if (cfg.cap.capWatts > 0.0)
        note += sim::strprintf(" cap=%gW", cfg.cap.capWatts);
    if (cfg.cap.thermalEnabled)
        note += " thermal";
    return note;
}

/** @{ Metric rows a server's and a fleet's tables share, over
 *  server::RunResult and cluster::FleetResult alike. */
template <typename Result>
void
addWindowRows(analysis::TableWriter &t, const Result &r)
{
    t.addRow({"window (s)",
              analysis::cell("%.3f", sim::toSec(r.window))});
    t.addRow({"requests", countCell(r.requests)});
    t.addRow({"achieved qps",
              analysis::cell("%.0f", r.achievedQps)});
}

template <typename Result>
void
addLatencyRows(analysis::TableWriter &t, const Result &r)
{
    t.addRow({"avg latency (us)",
              analysis::cell("%.2f", r.avgLatencyUs)});
    t.addRow({"p99 latency (us)",
              analysis::cell("%.2f", r.p99LatencyUs)});
    t.addRow({"p99.9 latency (us)",
              analysis::cell("%.2f", r.p999LatencyUs)});
}

template <typename Result>
void
addCapRows(analysis::TableWriter &t, const cap::CapConfig &cap,
           const Result &r)
{
    if (!cap.enabled())
        return;
    t.addRow({"cap throttled",
              analysis::cell("%.1f%%", 100 * r.capThrottleShare)});
    t.addRow({"forced-idle naps", countCell(r.forcedIdleNaps)});
    if (cap.thermalEnabled)
        t.addRow({"max temp (C)", analysis::cell("%.1f", r.maxTempC)});
}
/** @} */

/** Print a fleet run's tables; returns its artifact label. A
 *  non-flat schedule is a flash crowd when @p flash, else diurnal. */
std::string
printFleet(const cluster::FleetConfig &fleet_cfg,
           const cluster::FleetResult &r, bool flash)
{
    std::printf("fleet=%u route=%s workload=%s config=%s "
                "governor=%s qps=%.0f seed=%llu%s%s\n\n",
                r.servers, r.routingName.c_str(),
                r.workloadName.c_str(), r.configName.c_str(),
                fleet_cfg.server.governor.c_str(), r.offeredQps,
                static_cast<unsigned long long>(fleet_cfg.seed),
                fleet_cfg.schedule.isFlat() ? ""
                : flash                     ? " flash"
                                            : " diurnal",
                dvfsNote(fleet_cfg.server).c_str());

    analysis::TableWriter t({"metric", "value"});
    addWindowRows(t, r);
    t.addRow({"fleet power (W)",
              analysis::cell("%.2f", r.fleetPower)});
    t.addRow({"fleet energy (J)",
              analysis::cell("%.2f", r.fleetEnergy)});
    t.addRow({"energy/request (mJ)",
              analysis::cell("%.3f", r.energyPerRequestMj)});
    addLatencyRows(t, r);
    t.addRow({"deep idle (C6 family)",
              analysis::cell("%.1f%%", 100 * r.deepIdleShare)});
    t.addRow({"deep idle spread",
              analysis::cell("%.1f%% .. %.1f%%",
                             100 * r.minServerDeepShare,
                             100 * r.maxServerDeepShare)});
    t.addRow({"busiest server load share",
              analysis::cell("%.1f%%", 100 * r.busiestShareOfLoad)});
    addCapRows(t, fleet_cfg.server.cap, r);
    t.print();

    std::printf("\nper-server:\n");
    analysis::TableWriter ps({"server", "routed", "completed",
                              "pkg W", "deep idle", "p99 (us)"});
    for (unsigned i = 0; i < r.servers; ++i) {
        const auto &s = r.perServer[i];
        ps.addRow({analysis::cell("%u", i),
                   countCell(r.routedPerServer[i]),
                   countCell(s.requests),
                   analysis::cell("%.2f", s.packagePower),
                   analysis::cell(
                       "%.1f%%",
                       100 * cluster::deepIdleShare(s.residency)),
                   analysis::cell("%.1f", s.p99LatencyUs)});
    }
    ps.print();
    return sim::strprintf("fleet%u/%s/%s/%.0fqps", r.servers,
                          r.workloadName.c_str(), r.configName.c_str(),
                          r.offeredQps);
}

/** Print a server run's tables; returns its artifact label. */
std::string
printServer(const cluster::FleetConfig &fc, const server::RunResult &r)
{
    const auto &cfg = fc.server;
    std::printf("workload=%s config=%s governor=%s dispatch=%s "
                "qps=%.0f cores=%u seed=%llu%s%s%s\n\n",
                r.workloadName.c_str(), r.configName.c_str(),
                cfg.governor.c_str(), server::name(cfg.dispatch),
                r.offeredQps, cfg.cores,
                static_cast<unsigned long long>(fc.seed),
                cfg.packageCStatesEnabled ? " package" : "",
                cfg.runAtPn ? " pn" : "", dvfsNote(cfg).c_str());

    analysis::TableWriter t({"metric", "value"});
    addWindowRows(t, r);
    t.addRow({"avg core power (W)",
              analysis::cell("%.4f", r.avgCorePower)});
    t.addRow({"package power (W)",
              analysis::cell("%.2f", r.packagePower)});
    t.addRow({"core energy (J)",
              analysis::cell("%.2f", r.coreEnergy)});
    addLatencyRows(t, r);
    t.addRow({"avg latency e2e (us)",
              analysis::cell("%.2f", r.avgLatencyE2eUs)});
    t.addRow({"transitions/request",
              analysis::cell("%.3f", r.transitionsPerRequest)});
    t.addRow({"mispredicted entries",
              countCell(r.mispredictedEntries)});
    if (!cfg.freqPolicy.empty()) {
        t.addRow({"P-state ramps", countCell(r.freqTransitions)});
        t.addRow({"ramp energy (J)",
                  analysis::cell("%.4f", r.freqTransitionEnergyJ)});
    }
    addCapRows(t, cfg.cap, r);
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
    if (cfg.packageCStatesEnabled) {
        std::printf("package:   PC0=%.1f%% PC2=%.1f%% PC6=%.1f%% "
                    "uncore=%.2fW\n",
                    100 * r.pkgResidency[0], 100 * r.pkgResidency[1],
                    100 * r.pkgResidency[2], r.avgUncorePower);
    }
    return sim::strprintf("%s/%s/%.0fqps", r.workloadName.c_str(),
                          r.configName.c_str(), r.offeredQps);
}

} // namespace

int
main(int argc, char **argv)
{
    exp::SimArgs a;
    if (!exp::parseFlags(argc, argv,
                         "awsim -- AgileWatts C-state server simulator",
                         exp::awsimFlags(a)))
        return 0;

    auto &run = a.run;
    auto &fc = run.fleet;
    exp::shapeRun(a.shaping, run);
    fc.seed = a.shaping.seed;

    if (a.diurnal > 0.0 && a.flash > 0.0)
        sim::fatal("--flash conflicts with --diurnal (pick one load "
                   "shape)");
    if (a.diurnal > 0.0)
        fc.schedule = cluster::RateSchedule::sinusoidal(
            sim::fromSec(a.diurnalPeriod), a.diurnal);
    if (a.flash > 0.0)
        fc.schedule = cluster::RateSchedule::flashCrowd(
            sim::fromSec(a.diurnalPeriod), a.flash);

    const auto out = exp::simulate(run);

    const std::string label =
        out.fleet ? printFleet(fc, *out.fleet, a.flash > 0.0)
                  : printServer(fc, *out.server);
    if (out.timeline)
        writeTimeline(*out.timeline, label, a.shared);
    if (out.trace)
        writeRequestTrace(*out.trace, label, a);

    if (a.estimateAw && out.server) {
        core::AwCoreModel aw_model;
        const analysis::CStatePowerModel model(
            server::StatePowers::fromModels(aw_model.ppa()));
        std::printf("\nEq. 4 AW savings estimate from this run's "
                    "residencies: %.1f%%\n",
                    100.0 * model.awSavingsVsMeasured(
                                out.server->residency,
                                out.server->avgCorePower));
    }
    return 0;
}
