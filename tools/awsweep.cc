/**
 * @file
 * awsweep -- declarative parallel experiment sweeps.
 *
 * Expands a (workload x config x policy x fleet size x qps x
 * replica) grid, executes the points on a work-stealing thread
 * pool, prints a summary table and optionally writes CSV/JSON
 * artifacts. The artifacts are bit-identical for a given spec
 * regardless of --threads. Examples:
 *
 *   # the PR-2 fleet finding: routing policy x C-state config
 *   awsweep --fleet 8 --policies round-robin,pack-first \
 *           --configs c1c6,aw_c6a --qps 400000 --seconds 0.4 \
 *           --threads 8 --csv fleet.csv
 *
 *   # single-server rate sweep, 3 seed replicas per point
 *   awsweep --configs nt_baseline,nt_no_c6 \
 *           --qps 100000,200000,300000 --replicas 3
 *
 * Run `awsweep --help` for the full knob list.
 */

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/table.hh"
#include "exp/axis.hh"
#include "exp/cli.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "sim/logging.hh"

using namespace aw;

int
main(int argc, char **argv)
{
    exp::SweepArgs a;
    if (!exp::parseFlags(argc, argv,
                         "awsweep -- parallel experiment sweeps over "
                         "the AgileWatts simulator",
                         exp::awsweepFlags(a)))
        return 0;
    const auto &o = a.shared;
    const auto &spec = a.spec;
    // expand() inside run() validates on this thread before any
    // worker spawns.
    exp::SweepRunner runner(a.threads);
    const auto result = runner.run(spec);

    if (!a.quiet) {
        std::printf("sweep=%s points=%zu threads=%u seed=%llu "
                    "wall=%.2fs\n\n",
                    spec.name.c_str(), result.points.size(),
                    runner.threads(),
                    static_cast<unsigned long long>(spec.seed),
                    result.wallSeconds);
        // Optional axes get a column only when the spec swept them,
        // mirroring the artifact emitters.
        std::vector<const exp::Axis *> columns;
        std::vector<std::string> headers;
        for (const auto &axis : exp::axes())
            if (axis.heading && axis.emitted(spec)) {
                columns.push_back(&axis);
                headers.push_back(axis.heading);
            }
        for (const char *h : {"power W", "mJ/req", "avg us", "p99 us",
                              "deep idle"})
            headers.push_back(h);
        analysis::TableWriter t(headers);
        for (const auto &p : result.points) {
            std::vector<std::string> row;
            for (const exp::Axis *axis : columns)
                row.push_back(axis->shown(p.point)
                                  ? axis->format(axis->cell, p.point)
                                  : "-");
            row.insert(row.end(),
                       {analysis::cell("%.1f", p.powerW),
                        analysis::cell("%.3f", p.energyPerRequestMj),
                        analysis::cell("%.1f", p.avgLatencyUs),
                        analysis::cell("%.1f", p.p99LatencyUs),
                        analysis::cell("%.1f%%", 100 * p.deepIdleShare)});
            t.addRow(row);
        }
        t.print();
    }

    // Every requested artifact, in the order the "artifacts:" line
    // names them.
    const std::tuple<const char *, const std::string &,
                     std::string (*)(const exp::SweepResult &)>
        artifacts[] = {
            {"csv", a.csv, exp::toCsv},
            {"json", a.json, exp::toJson},
            {"timeline", o.timelineCsv, exp::toTimelineCsv},
            {"timeline_json", o.timelineJson, exp::toTimelineJson},
            {"trace", o.traceCsv, exp::toTraceCsv},
            {"trace_json", o.traceJson, exp::toTraceJson}};
    std::string written;
    for (const auto &[key, path, emit] : artifacts) {
        if (path.empty())
            continue;
        exp::writeFile(path, emit(result));
        written += sim::strprintf(" %s=%s", key, path.c_str());
    }
    if (!a.quiet && !written.empty())
        std::printf("\nartifacts:%s\n", written.c_str());
    return 0;
}
