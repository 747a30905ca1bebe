/**
 * @file
 * Ablation: in-place context retention (AW) vs external S/R SRAM
 * (legacy C6) across context sizes and core frequencies. This is
 * the Sec 4.1 design argument quantified: the external path costs
 * microseconds that scale with context size and worsen at low
 * frequency; the in-place path is a handful of PMA cycles and a
 * couple of milliwatts.
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "core/pma.hh"
#include "power/srpg.hh"

namespace {

using namespace aw;
using power::ContextRetention;
using power::ExternalSaveRestore;

void
reproduce()
{
    banner("Ablation: context retention techniques");
    analysis::TableWriter t({"context", "freq",
                             "external S/R (us, each way)",
                             "in-place (ns)",
                             "in-place power @P1 (mW)"});
    const double in_place_ns = sim::toNs(
        core::C6aController::kPmaClock.cycles(
            ContextRetention::kSaveCycles));
    for (const double kb : {2.0, 8.0, 16.0, 32.0}) {
        for (const double ghz : {0.8, 2.2}) {
            const ExternalSaveRestore ext(kb * 1024.0);
            const ContextRetention inp(kb * 1024.0);
            t.addRow(
                {analysis::cell("%.0f KB", kb),
                 analysis::cell("%.1f GHz", ghz),
                 analysis::cell("%.1f",
                                sim::toUs(ext.transferTime(
                                    sim::Frequency::ghz(ghz)))),
                 analysis::cell("%.0f", in_place_ns),
                 analysis::cell("%.1f",
                                power::asMilliwatts(
                                    inp.powerAtP1()))});
        }
    }
    t.print();

    std::printf("\nthe external path is >1000x slower at every "
                "point and scales with context size;\nin-place "
                "retention is 4 PMA cycles at ~2 mW for the 8 KB "
                "Skylake context.\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
