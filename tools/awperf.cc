/**
 * @file
 * awperf -- self-timing harness for the simulation kernel.
 *
 * Runs the pinned scenario registry (see src/exp/perf.hh), reports
 * wall clock, simulated-seconds-per-second and events-per-second
 * per scenario, and optionally writes the stable aw-perf/1 JSON
 * document consumed by scripts/check_perf.py and the CI perf-smoke
 * gate:
 *
 *   awperf                       # all scenarios, summary table
 *   awperf --json results/BENCH_perf.json
 *   awperf --scenarios fleet_sweep --repeat 5
 *   awperf --list                # names + descriptions
 *
 * Scenarios are deterministic simulations; only the wall clock
 * varies between runs, and --repeat keeps the best (minimum) wall
 * time so shared-machine noise biases measurements slow-to-fast,
 * never fast-to-slow.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/table.hh"
#include "exp/cli.hh"
#include "exp/emit.hh"
#include "exp/perf.hh"
#include "sim/logging.hh"
#include "sim/registry.hh"

using namespace aw;

int
main(int argc, char **argv)
{
    exp::PerfArgs a;
    if (!exp::parseFlags(argc, argv,
                         "awperf -- simulation-kernel speed telemetry",
                         exp::awperfFlags(a)))
        return 0;
    const auto &all = exp::perfScenarios();
    if (a.list) {
        std::size_t width = 0;
        for (const auto &s : all)
            width = std::max(width, s.name.size());
        for (const auto &s : all)
            std::printf("%-*s %s\n", static_cast<int>(width),
                        s.name.c_str(), s.description.c_str());
        return 0;
    }

    if (a.scenarios.empty())
        a.scenarios = sim::registryNames(all);
    std::vector<const exp::PerfScenario *> selected;
    for (const auto &name : a.scenarios) {
        const auto *s = exp::findPerfScenario(name);
        if (!s)
            sim::fatal("unknown scenario '%s' (%s)", name.c_str(),
                       sim::joinNames(all).c_str());
        selected.push_back(s);
    }

    std::vector<exp::PerfMeasurement> runs;
    runs.reserve(selected.size());
    for (const auto *s : selected)
        runs.push_back(exp::measurePerfScenario(*s, a.repeat));

    if (!a.quiet) {
        std::printf("awperf scenarios=%zu repeat=%u (wall = best "
                    "of repeats)\n\n",
                    runs.size(), a.repeat);
        analysis::TableWriter t({"scenario", "wall s", "sim s",
                                 "sim/wall", "events", "events/s",
                                 "req/s"});
        for (const auto &m : runs) {
            t.addRow({m.name, analysis::cell("%.3f", m.wallSeconds),
                      analysis::cell("%.2f", m.totals.simSeconds),
                      analysis::cell("%.1f", m.simPerWall()),
                      analysis::cell(
                          "%llu", static_cast<unsigned long long>(
                                      m.totals.events)),
                      analysis::cell("%.3g", m.eventsPerSec()),
                      analysis::cell("%.3g", m.requestsPerSec())});
        }
        t.print();
    }

    if (!a.json.empty()) {
        exp::writeFile(a.json, exp::perfToJson(runs));
        if (!a.quiet)
            std::printf("\nartifact: json=%s\n", a.json.c_str());
    }
    return 0;
}
