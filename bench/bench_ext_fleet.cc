/**
 * @file
 * Extension: fleet-level energy -- routing policy x C-state
 * configuration x fleet size.
 *
 * The paper's argument is datacenter-scale (Sec 2: fleets of
 * latency-critical servers idle at 5-25% utilization), so this
 * harness asks its question at fleet scale: how does the request
 * routing policy interact with the idle-state architecture? Spread
 * policies (round-robin, random, least-outstanding) hold every
 * server at shallow utilization; pack-first consolidates traffic so
 * spare servers sink into uninterrupted deep idle. The headline:
 * pack-first + AgileWatts beats spread + tuned C6 on fleet energy
 * at comparable p99, and C6A makes even the consolidated (loaded)
 * servers cheap to wake.
 *
 * Both grids run through exp::SweepRunner (the policy x config grid
 * and the per-server-load fleet scaling sweep), executing the fleet
 * runs in parallel.
 */

#include "bench_common.hh"

#include <vector>

#include "analysis/table.hh"
#include "cluster/routing.hh"
#include "exp/runner.hh"
#include "sim/logging.hh"

namespace {

using namespace aw;

/** Pretty label per config registry name. */
const char *
configLabel(const std::string &key)
{
    if (key == "c1only")
        return "C1-only";
    if (key == "c1c6")
        return "tuned C6";
    if (key == "aw_c6a")
        return "AW (C6A)";
    sim::fatal("no pretty label for config '%s'", key.c_str());
}

void
reproduce()
{
    const double window_s = 0.4;
    const double warmup_s = 0.04;

    banner("Extension: fleet energy -- routing policy x C-state "
           "config (K = 8)");

    exp::ExperimentSpec grid;
    grid.name = "fleet-policy-config";
    grid.workloads = {"memcached"};
    grid.configs = {"c1only", "c1c6", "aw_c6a"};
    grid.policies = cluster::routingPolicyNames();
    grid.fleetSizes = {8};
    grid.qps = {400e3}; // 50 KQPS/server at K = 8
    grid.seconds = window_s;
    grid.warmupSeconds = warmup_s;
    const auto sweep = exp::SweepRunner().run(grid);

    analysis::TableWriter t({"policy", "config", "fleet W", "mJ/req",
                             "avg (us)", "p99 (us)", "deep idle",
                             "spare deep"});
    for (const auto &policy : grid.policies) {
        for (const auto &config : grid.configs) {
            const auto &r =
                sweep.at({.config = config, .policy = policy});
            t.addRow({policy, configLabel(config),
                      analysis::cell("%.1f", r.powerW),
                      analysis::cell("%.3f", r.energyPerRequestMj),
                      analysis::cell("%.1f", r.avgLatencyUs),
                      analysis::cell("%.1f", r.p99LatencyUs),
                      analysis::cell("%.1f%%",
                                     100 * r.deepIdleShare),
                      analysis::cell("%.1f%%",
                                     100 * r.maxServerDeepShare)});
        }
    }
    t.print();
    std::printf(
        "\nspread policies pin every server at shallow-idle "
        "utilization; pack-first\nparks the spare servers in "
        "uninterrupted deep idle (spare deep -> 100%%).\nAW makes "
        "the remaining difference: with C6A even the packed "
        "servers' short\ngaps harvest deep-idle power, so "
        "pack-first + AW is the cheapest cell at\ncomparable p99.\n");

    banner("Extension: fleet size scaling at fixed per-server load "
           "(50 KQPS/server, tuned C6)");

    exp::ExperimentSpec scaling;
    scaling.name = "fleet-size-scaling";
    scaling.workloads = {"memcached"};
    scaling.configs = {"c1c6"};
    scaling.policies = {"round-robin", "pack-first"};
    scaling.fleetSizes = {2, 4, 8, 16};
    scaling.qps = {50e3};
    scaling.qpsPerServer = true;
    scaling.seconds = window_s;
    scaling.warmupSeconds = warmup_s;
    const auto ssweep = exp::SweepRunner().run(scaling);

    analysis::TableWriter s({"K", "policy", "fleet W", "W/server",
                             "mJ/req", "p99 (us)", "deep idle"});
    for (const unsigned k : scaling.fleetSizes) {
        for (const auto &policy : scaling.policies) {
            const auto &r =
                ssweep.at({.policy = policy, .servers = k});
            s.addRow({analysis::cell("%u", k), policy,
                      analysis::cell("%.1f", r.powerW),
                      analysis::cell("%.1f", r.powerW / k),
                      analysis::cell("%.3f", r.energyPerRequestMj),
                      analysis::cell("%.1f", r.p99LatencyUs),
                      analysis::cell("%.1f%%",
                                     100 * r.deepIdleShare)});
        }
    }
    s.print();
    std::printf(
        "\nunder the legacy hierarchy per-server watts fall with K "
        "for pack-first\n(a growing majority of servers sit at the "
        "deep-idle floor) but stay flat\nfor round-robin: "
        "consolidation headroom grows with the fleet while\nspread "
        "routing wastes it. AW (table above) delivers the same "
        "savings at\nany K with no routing help at all.\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
