/**
 * @file
 * Ablation: L1/L2 flush cost (the dominant C6 entry term) across
 * dirty fraction and core frequency -- the Sec 4.2 motivation for
 * keeping the caches power-ungated in C6A.
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "uarch/cache.hh"

namespace {

using namespace aw;

void
reproduce()
{
    const auto caches = uarch::PrivateCaches::skylakeServer();
    const auto &fm = caches.flushModel();
    const auto lines = caches.totalLines();

    banner("Ablation: C6 flush time (us) vs dirty fraction and "
           "frequency");
    analysis::TableWriter t({"dirty", "0.8 GHz", "1.2 GHz",
                             "2.2 GHz", "3.0 GHz"});
    for (const double dirty : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
        std::vector<std::string> row{
            analysis::cell("%.0f%%", dirty * 100)};
        for (const double ghz : {0.8, 1.2, 2.2, 3.0}) {
            row.push_back(analysis::cell(
                "%.1f", sim::toUs(fm.flushTime(
                            lines, dirty,
                            sim::Frequency::ghz(ghz)))));
        }
        t.addRow(std::move(row));
    }
    t.print();

    std::printf("\ncalibration anchor: 50%% dirty at 0.8 GHz = "
                "~75 us (paper Sec 3). Even the best\ncase (clean "
                "cache at 3 GHz) costs ~%.1f us -- hence C6A keeps "
                "the caches ungated\nand pays ~0 instead.\n",
                sim::toUs(fm.flushTime(lines, 0.0,
                                       sim::Frequency::ghz(3.0))));
}

} // namespace

AW_BENCH_MAIN(reproduce)
