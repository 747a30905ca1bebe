/**
 * @file
 * Sec 2 reproduction: the motivational upper bound (Eq. 1) --
 * power savings if an ideal deep state with C1's latency and C6's
 * power existed, for the residency mixes reported by prior work.
 */

#include "bench_common.hh"

#include "analysis/power_model.hh"
#include "analysis/table.hh"
#include "core/aw_core.hh"

namespace {

using namespace aw;
using namespace aw::cstate;

ResidencySnapshot
mix(double c0, double c1, double c6)
{
    ResidencySnapshot r;
    r.share[index(CStateId::C0)] = c0;
    r.share[index(CStateId::C1)] = c1;
    r.share[index(CStateId::C6)] = c6;
    r.window = sim::fromSec(1.0);
    return r;
}

void
reproduce()
{
    core::AwCoreModel aw_model;
    const analysis::CStatePowerModel model(
        server::StatePowers::fromModels(aw_model.ppa()));

    banner("Sec 2: ideal deep-idle-state savings upper bound "
           "(Eq. 1)");
    struct Case
    {
        const char *name;
        ResidencySnapshot r;
        double paper;
    };
    const Case cases[] = {
        {"search @ 50% load (C0=50,C1=45,C6=5)",
         mix(0.50, 0.45, 0.05), 23.0},
        {"search @ 25% load (C0=25,C1=55,C6=20)",
         mix(0.25, 0.55, 0.20), 41.0},
        {"key-value @ 20% load (C0=20,C1=80,C6=0)",
         mix(0.20, 0.80, 0.00), 55.0},
    };

    analysis::TableWriter t({"Scenario", "AvgP baseline (W)",
                             "Savings upper bound", "Paper"});
    for (const auto &c : cases) {
        t.addRow({c.name,
                  analysis::cell("%.2f",
                                 model.baselineAvgPower(c.r)),
                  analysis::cell(
                      "%.0f%%",
                      100 * model.idealDeepStateSavings(c.r)),
                  analysis::cell("%.0f%%", c.paper)});
    }
    t.print();
    std::printf("\nLighter loads leave even more C1 time to "
                "convert, hence higher bounds.\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
