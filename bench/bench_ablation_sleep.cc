/**
 * @file
 * Ablation: cache sleep-mode depth. The sleep transistors have
 * seven programmable settings (Sec 5.1.2); deeper settings retain
 * less leakage but shave retention margin. This sweep shows how
 * the C6A total and the AW savings respond to the setting -- i.e.,
 * how much of the design's benefit hinges on the deepest point.
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "core/aw_core.hh"
#include "core/ppa.hh"

namespace {

using namespace aw;
using power::asMilliwatts;

void
reproduce()
{
    core::AwCoreModel model;
    const auto &caches = model.caches();
    const auto &arrays = model.ccsm().arrays();

    banner("Ablation: sleep-transistor setting vs C6A power");
    analysis::TableWriter t({"setting", "array mW (P1)",
                             "array mW (Pn)", "C6A total mW",
                             "C6AE total mW", "vs C1"});
    for (unsigned s = 0; s < power::SramSleepMode::kSettings; ++s) {
        // Rebuild CCSM with the arrays parked at setting s.
        const power::SramSleepMode at_setting(
            arrays.capacityBytes(),
            arrays.sleepPowerAtSetting(s, false),
            arrays.sleepPowerAtSetting(s, true));
        const core::Ccsm ccsm(caches, at_setting,
                              model.ccsm().restPowerP1(),
                              model.ccsm().restPowerPn());
        const core::AwPpaModel ppa(model.ufpg(), ccsm);
        const double c6a = ppa.totalPowerC6a().mid();
        t.addRow({analysis::cell("%u%s", s,
                                 s == 0 ? " (deepest)" : ""),
                  analysis::cell(
                      "%.1f", asMilliwatts(
                                  at_setting.sleepPowerAtP1())),
                  analysis::cell(
                      "%.1f", asMilliwatts(
                                  at_setting.sleepPowerAtPn())),
                  analysis::cell("%.0f", asMilliwatts(c6a)),
                  analysis::cell(
                      "%.0f",
                      asMilliwatts(ppa.totalPowerC6ae().mid())),
                  analysis::cell("%.1fx", 1.44 / c6a)});
    }
    t.print();

    std::printf("\neven the shallowest sleep setting keeps C6A "
                "well under C1; the deepest setting\nbuys the "
                "final ~%.0f mW the paper's Table 3 assumes.\n",
                asMilliwatts(
                    arrays.sleepPowerAtSetting(6) -
                    arrays.sleepPowerAtSetting(0)));
}

} // namespace

AW_BENCH_MAIN(reproduce)
