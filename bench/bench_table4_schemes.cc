/**
 * @file
 * Table 4 reproduction: comparison of core power-gating schemes.
 *
 * The scheme registry runs through exp::SweepRunner's free-form
 * variant axis with a custom point function (one grid point per
 * scheme, reporting the wake-up overhead as an extra metric), which
 * both exercises the engine's custom-function path and yields the
 * quantitative wake-overhead ranking printed under the table.
 */

#include "bench_common.hh"

#include <algorithm>
#include <vector>

#include "analysis/table.hh"
#include "core/aw_core.hh"
#include "core/schemes.hh"
#include "exp/runner.hh"

namespace {

using namespace aw;

void
reproduce()
{
    core::AwCoreModel model;
    const auto rows = core::powerGatingSchemes(model.controller());

    banner("Table 4: comparison of core power-gating schemes");
    analysis::TableWriter t({"Technique", "Core Type",
                             "Power-gating Trigger",
                             "Power-gated Blocks",
                             "Wake-up Overhead"});
    for (const auto &row : rows) {
        t.addRow({row.technique, row.coreType, row.trigger,
                  row.gatedBlocks, row.wakeOverhead});
    }
    t.print();

    // Scheme axis -> one grid point per technique; the point
    // function looks the scheme up and reports its wake overhead.
    exp::ExperimentSpec spec;
    spec.name = "table4-schemes";
    for (const auto &row : rows)
        spec.variants.push_back(row.technique);

    const auto sweep = exp::SweepRunner().run(
        spec, [&rows](const exp::GridPoint &pt) {
            exp::PointResult res;
            res.point = pt;
            res.extras.emplace_back(
                "wake_ns", core::schemeWakeNs(rows, pt.variant));
            return res;
        });

    banner("Wake-up overhead ranking (schemes reporting time)");
    std::vector<const exp::PointResult *> timed;
    for (const auto &p : sweep.points)
        if (p.extras.front().second > 0.0)
            timed.push_back(&p);
    std::sort(timed.begin(), timed.end(),
              [](const auto *a, const auto *b) {
                  return a->extras.front().second <
                         b->extras.front().second;
              });
    analysis::TableWriter rank({"Technique", "Wake-up (ns)"});
    for (const auto *p : timed)
        rank.addRow({p->point.variant,
                     analysis::cell("%.0f",
                                    p->extras.front().second)});
    rank.print();

    std::printf("\nAW gates most of the core with a wake-up within "
                "one order of magnitude\nof the silicon-proven "
                "AVX-only gates (~10-15 ns).\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
