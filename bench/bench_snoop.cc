/**
 * @file
 * Sec 7.5 reproduction: impact of high snoop traffic on AW
 * savings. Analytical bound (79% -> 68%, losing ~11 points) plus
 * a simulation sweep of snoop rates on a fully idle core.
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "core/ccsm.hh"
#include "cstate/cstate.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;

void
reproduce()
{
    banner("Sec 7.5: snoop-traffic impact on AW savings "
           "(analytical bound)");
    const double p_c1 = cstate::descriptor(
        cstate::CStateId::C1).corePower;
    const double p_c6a = cstate::descriptor(
        cstate::CStateId::C6A).corePower;
    const double d_c1 = core::Ccsm::kSnoopServiceDeltaC1;
    const double d_c6a = core::Ccsm::kSnoopServiceDeltaC6a;

    const double no_snoop = (p_c1 - p_c6a) / p_c1;
    const double all_snoop =
        ((p_c1 + d_c1) - (p_c6a + d_c6a + d_c1)) / (p_c1 + d_c1);

    analysis::TableWriter t({"scenario", "C1 power", "C6A power",
                             "AW savings"});
    t.addRow({"100% idle, no snoops",
              analysis::cell("%.2f W", p_c1),
              analysis::cell("%.2f W", p_c6a),
              analysis::cell("%.0f%%", 100 * no_snoop)});
    t.addRow({"100% idle, snoops all the time",
              analysis::cell("%.2f W", p_c1 + d_c1),
              analysis::cell("%.2f W", p_c6a + d_c6a + d_c1),
              analysis::cell("%.0f%%", 100 * all_snoop)});
    t.print();
    std::printf("\nworst-case loss: %.0f points (paper: ~11)\n",
                100 * (no_snoop - all_snoop));

    banner("Simulation: idle server power vs snoop rate");
    const auto profile = workload::WorkloadProfile::memcached();
    analysis::TableWriter ts({"snoops/s/core", "C1-only W/core",
                              "C6A W/core", "savings"});
    // The analytical 68% is the bound where the caches never get
    // back to sleep; realistic probes re-sleep within tens of ns,
    // so visible erosion needs multi-MHz probe rates.
    for (const double rate : {0.0, 1e6, 5e6, 20e6}) {
        server::ServerConfig legacy =
            server::ServerConfig::legacyC1Only();
        legacy.snoopRatePerSec = rate;
        server::ServerConfig agile =
            server::ServerConfig::awC6aOnly();
        agile.snoopRatePerSec = rate;
        // Trickle load: the cores are essentially always idle.
        server::ServerSim a(legacy, profile, 1e3);
        server::ServerSim b(agile, profile, 1e3);
        const auto ra = a.run(sim::fromSec(2.0), sim::fromMs(200.0));
        const auto rb = b.run(sim::fromSec(2.0), sim::fromMs(200.0));
        ts.addRow({analysis::cell("%.0fK", rate / 1e3),
                   analysis::cell("%.3f", ra.avgCorePower),
                   analysis::cell("%.3f", rb.avgCorePower),
                   analysis::cell("%.1f%%",
                                  100 * (1.0 - rb.avgCorePower /
                                                   ra.avgCorePower))});
    }
    ts.print();
    std::printf("\nsavings erode with snoop rate but stay large: "
                "the caches wake only for the probe window.\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
