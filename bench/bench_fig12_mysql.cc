/**
 * @file
 * Fig 12 reproduction (MySQL, low/mid/high request rates):
 *  (a) baseline (C1+C6) C-state residency,
 *  (b) residency with C6 disabled,
 *  (c) tail/average latency reduction from disabling C6,
 *  (d) AW C6A average power reduction vs the C6-disabled config.
 */

#include "bench_common.hh"

#include <vector>

#include "analysis/table.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;
using cstate::CStateId;

const char *kLevels[] = {"low", "mid", "high"};

void
reproduce()
{
    const auto profile = workload::WorkloadProfile::mysql();
    const auto &rates = profile.rateLevels();
    const auto dur = sim::fromSec(20.0);
    const auto warm = sim::fromSec(2.0);

    const auto base = server::sweepRates(
        server::ServerConfig::legacyC1C6(), profile, rates, dur,
        warm);
    const auto no_c6 = server::sweepRates(
        server::ServerConfig::legacyC1Only(), profile, rates, dur,
        warm);
    const auto agile = server::sweepRates(
        server::ServerConfig::awC6aOnly(), profile, rates, dur,
        warm);

    banner("Fig 12(a): baseline (C1+C6) residency (%)");
    analysis::TableWriter ta({"rate", "C0", "C1", "C6"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &r = base[i].residency;
        ta.addRow({kLevels[i],
                   analysis::cell("%.1f",
                                  100 * r.shareOf(CStateId::C0)),
                   analysis::cell("%.1f",
                                  100 * r.shareOf(CStateId::C1)),
                   analysis::cell("%.1f",
                                  100 * r.shareOf(CStateId::C6))});
    }
    ta.print();
    std::printf("\npaper: >=40%% C6 residency at all rates\n");

    banner("Fig 12(b): residency with C6 disabled (%)");
    analysis::TableWriter tb({"rate", "C0", "C1"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const auto &r = no_c6[i].residency;
        tb.addRow({kLevels[i],
                   analysis::cell("%.1f",
                                  100 * r.shareOf(CStateId::C0)),
                   analysis::cell("%.1f",
                                  100 * r.shareOf(CStateId::C1))});
    }
    tb.print();

    banner("Fig 12(c): latency reduction from disabling C6");
    analysis::TableWriter tc({"rate", "avg lat red.",
                              "tail lat red."});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        tc.addRow({kLevels[i],
                   analysis::cell("%.1f%%",
                                  100 * (1.0 -
                                         no_c6[i].avgLatencyUs /
                                             base[i].avgLatencyUs)),
                   analysis::cell(
                       "%.1f%%",
                       100 * (1.0 - no_c6[i].p99LatencyUs /
                                        base[i].p99LatencyUs))});
    }
    tc.print();
    std::printf("\npaper: 4-10%% improvement -> vendors recommend "
                "disabling C6\n");

    banner("Fig 12(d): AW C6A AvgP reduction vs C6-disabled");
    analysis::TableWriter td({"rate", "No_C6 W/core", "C6A W/core",
                              "AvgP reduction"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        td.addRow({kLevels[i],
                   analysis::cell("%.3f", no_c6[i].avgCorePower),
                   analysis::cell("%.3f", agile[i].avgCorePower),
                   analysis::cell(
                       "%.1f%%",
                       100 * (1.0 - agile[i].avgCorePower /
                                        no_c6[i].avgCorePower))});
    }
    td.print();
    std::printf("\npaper: 22-56%% average power reduction\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
