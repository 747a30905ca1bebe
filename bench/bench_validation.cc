/**
 * @file
 * Sec 6.3 reproduction: analytical power-model validation against
 * the simulated "measurement" for four server workloads
 * (SPECpower, Nginx, Spark, Hive). Paper accuracies: 96.1 / 95.2 /
 * 94.4 / 94.9%.
 */

#include "bench_common.hh"

#include "analysis/table.hh"
#include "analysis/validation.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;

void
reproduce()
{
    banner("Sec 6.3: power model validation "
           "(estimated vs measured average power)");
    analysis::TableWriter t({"workload", "QPS", "measured (W)",
                             "estimated (W)", "accuracy"});
    analysis::TableWriter summary({"workload", "mean accuracy",
                                   "worst accuracy"});
    for (const auto &profile :
         workload::WorkloadProfile::validationSuite()) {
        const auto s = analysis::validateWorkload(
            server::ServerConfig::ntBaseline(), profile);
        for (const auto &p : s.points) {
            t.addRow({p.workload,
                      analysis::cell("%.0f", p.qps),
                      analysis::cell("%.3f", p.measured),
                      analysis::cell("%.3f", p.estimated),
                      analysis::cell("%.1f%%",
                                     p.accuracyPercent())});
        }
        summary.addRow({s.workload,
                        analysis::cell("%.1f%%",
                                       s.meanAccuracyPercent()),
                        analysis::cell("%.1f%%",
                                       s.worstAccuracyPercent())});
    }
    t.print();
    std::printf("\n");
    summary.print();
    std::printf("\npaper: 96.1%% / 95.2%% / 94.4%% / 94.9%% for "
                "SPECpower / Nginx / Spark / Hive\n");
}

} // namespace

AW_BENCH_MAIN(reproduce)
