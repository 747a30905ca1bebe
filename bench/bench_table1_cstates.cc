/**
 * @file
 * Table 1 + Table 2 reproduction: the C-state hierarchy with
 * transition times, target residencies and per-core power,
 * including AW's C6A/C6AE, plus the component-state matrix.
 *
 * Transition envelopes are *derived* from the models at the paper's
 * reference point (800 MHz, 50% dirty caches for C6).
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "core/aw_core.hh"
#include "cstate/transition.hh"

namespace {

using namespace aw;
using namespace aw::cstate;

void
reproduce()
{
    core::AwCoreModel model;
    model.caches().setDirtyFraction(0.5);
    auto engine = model.makeTransitionEngine();
    const auto ref_freq = sim::Frequency::mhz(800.0);

    banner("Table 1: C-states of the modeled Skylake server core "
           "+ AW's C6A/C6AE");
    analysis::TableWriter t1({"Core C-state", "Transition time",
                              "Target residency", "Power per core"});
    t1.addRow({"C0 (P1)", "N/A", "N/A",
               analysis::cell("~%.0fW", kC0PowerP1)});
    t1.addRow({"C0 (Pn)", "N/A", "N/A",
               analysis::cell("~%.0fW", kC0PowerPn)});
    const CStateId order[] = {CStateId::C1, CStateId::C6A,
                              CStateId::C1E, CStateId::C6AE,
                              CStateId::C6};
    for (const auto id : order) {
        const auto &d = descriptor(id);
        const auto lat = engine.latency(id, ref_freq);
        t1.addRow({analysis::cell("%s%s", name(id),
                                  d.atPn ? " (Pn)" : " (P1)"),
                   analysis::cell("%.1f us",
                                  sim::toUs(lat.total())),
                   analysis::cell("%.0f us",
                                  sim::toUs(d.targetResidency)),
                   analysis::cell("~%.2fW", d.corePower)});
    }
    t1.print();

    banner("Table 2: component states per C-state");
    analysis::TableWriter t2({"C-State", "Clocks", "ADPLL",
                              "L1/L2 Cache", "Voltage", "Context"});
    const CStateId all[] = {CStateId::C0, CStateId::C1,
                            CStateId::C6A, CStateId::C1E,
                            CStateId::C6AE, CStateId::C6};
    for (const auto id : all) {
        const auto &d = descriptor(id);
        t2.addRow({name(id), name(d.clocks), name(d.pll),
                   name(d.caches), name(d.voltage),
                   name(d.context)});
    }
    t2.print();

    // The headline ratios.
    const auto c6 = engine.latency(CStateId::C6, ref_freq);
    const auto c6a_hw = engine.hardwareLatency(
        CStateId::C6A, sim::Frequency::ghz(2.2));
    std::printf("\nC6 envelope %.0f us vs C6A hardware %.0f ns: "
                "%.0fx faster (paper: up to 900x)\n",
                sim::toUs(c6.total()), sim::toNs(c6a_hw.total()),
                static_cast<double>(c6.total()) /
                    static_cast<double>(c6a_hw.total()));
    std::printf("C6A power / C0 = %.0f%%, C6AE / C0 = %.0f%% "
                "(paper: 7%% and 5%%)\n",
                100.0 * descriptor(CStateId::C6A).corePower /
                    kC0PowerP1,
                100.0 * descriptor(CStateId::C6AE).corePower /
                    kC0PowerP1);
}

} // namespace

AW_BENCH_MAIN(reproduce)
