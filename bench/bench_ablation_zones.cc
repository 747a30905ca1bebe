/**
 * @file
 * Ablation: staggered wake-up zone count vs C6A exit latency and
 * in-rush feasibility. The paper picks 5 zones; this sweep shows
 * why -- fewer proportional zones don't change total wake time but
 * equal-interval plans trade zone count against in-rush violation,
 * and more zones add controller overhead for no latency win.
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "core/aw_core.hh"
#include "power/power_gate.hh"

namespace {

using namespace aw;
using power::StaggeredWakeupPlan;

void
reproduce()
{
    core::AwCoreModel model;
    const double area =
        model.inventory().ufpgToAvxAreaRatio();

    banner("Ablation: wake-zone plans for the UFPG domain "
           "(area = 4.5x AVX reference)");
    analysis::TableWriter t({"zones", "plan", "total wake (ns)",
                             "peak in-rush (x ref)", "feasible"});
    for (const std::size_t zones : {1u, 2u, 3u, 5u, 8u, 10u}) {
        const auto prop =
            StaggeredWakeupPlan::proportional(area, zones);
        t.addRow({analysis::cell("%zu", zones), "proportional",
                  analysis::cell("%.1f",
                                 sim::toNs(prop.totalWakeTime())),
                  analysis::cell(
                      "%.2f", prop.peakInrushRelToReference()),
                  prop.inrushWithinLimit() ? "yes" : "NO"});
        const auto eq = StaggeredWakeupPlan::equalSplit(area, zones);
        t.addRow({analysis::cell("%zu", zones),
                  "equal 15ns ramps",
                  analysis::cell("%.1f",
                                 sim::toNs(eq.totalWakeTime())),
                  analysis::cell("%.2f",
                                 eq.peakInrushRelToReference()),
                  eq.inrushWithinLimit() ? "yes" : "NO"});
    }
    t.print();

    std::printf("\nproportional ramps hold in-rush exactly at the "
                "reference and keep the total at\n~%.1f ns "
                "regardless of zone count; equal 15 ns ramps only "
                "become feasible at >=5 zones\n(zone area <= "
                "reference area) but then waste wake time.\n",
                area * 15.0);
}

} // namespace

AW_BENCH_MAIN(reproduce)
