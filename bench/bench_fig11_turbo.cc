/**
 * @file
 * Fig 11 reproduction: the Turbo / idle-state interaction. Six
 * configurations (Turbo on/off x {No_C6, No_C6+No_C1E, C6A}),
 * average and tail latency across the Memcached sweep.
 *
 * The paper's three observations must hold:
 *  1. NT_No_C6 beats NT_No_C6,No_C1E at the tail (C1E's 10 us
 *     transition hurts less than it helps? no -- other way: see
 *     below) -- specifically disabling C1E changes latency;
 *  2. enabling Turbo with C1-only idle does NOT improve
 *     performance (no thermal credit accrues at 1.44 W);
 *  3. Turbo + C6A recovers the burst headroom (dashed green
 *     line): lowest latency of all.
 */

#include "bench_common.hh"

#include <vector>

#include "analysis/table.hh"
#include "server/server_sim.hh"
#include "workload/profiles.hh"

namespace {

using namespace aw;

void
reproduce()
{
    const auto profile = workload::WorkloadProfile::memcached();
    const auto &rates = profile.rateLevels();

    const std::vector<server::ServerConfig> configs = {
        server::ServerConfig::ntNoC6(),
        server::ServerConfig::ntNoC6NoC1e(),
        server::ServerConfig::ntAwNoC6NoC1e(),
        server::ServerConfig::tNoC6(),
        server::ServerConfig::tNoC6NoC1e(),
        server::ServerConfig::tAwNoC6NoC1e(),
    };

    std::vector<std::vector<server::RunResult>> runs;
    for (const auto &cfg : configs)
        runs.push_back(server::sweepRates(cfg, profile, rates));

    banner("Fig 11(a,b): average latency (us)");
    {
        std::vector<std::string> hdr{"KQPS"};
        for (const auto &cfg : configs)
            hdr.push_back(cfg.name);
        analysis::TableWriter t(hdr);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            std::vector<std::string> row{
                analysis::cell("%.0f", rates[i] / 1e3)};
            for (std::size_t c = 0; c < configs.size(); ++c) {
                row.push_back(analysis::cell(
                    "%.1f", runs[c][i].avgLatencyUs));
            }
            t.addRow(std::move(row));
        }
        t.print();
    }

    banner("Fig 11(c,d): tail (p99) latency (us)");
    {
        std::vector<std::string> hdr{"KQPS"};
        for (const auto &cfg : configs)
            hdr.push_back(cfg.name);
        analysis::TableWriter t(hdr);
        for (std::size_t i = 0; i < rates.size(); ++i) {
            std::vector<std::string> row{
                analysis::cell("%.0f", rates[i] / 1e3)};
            for (std::size_t c = 0; c < configs.size(); ++c) {
                row.push_back(analysis::cell(
                    "%.1f", runs[c][i].p99LatencyUs));
            }
            t.addRow(std::move(row));
        }
        t.print();
    }

    // The three key observations, checked numerically at 300 KQPS.
    const std::size_t mid = 4; // 300 KQPS index
    const double nt_c1 = runs[1][mid].avgLatencyUs;
    const double t_c1 = runs[4][mid].avgLatencyUs;
    const double nt_aw = runs[2][mid].avgLatencyUs;
    const double t_aw = runs[5][mid].avgLatencyUs;
    std::printf("\nat %.0f KQPS:\n", rates[mid] / 1e3);
    std::printf("  Turbo with C1-only idle: %.1f -> %.1f us "
                "(%+.1f%%, paper: no improvement)\n",
                nt_c1, t_c1, 100 * (t_c1 / nt_c1 - 1.0));
    std::printf("  Turbo with C6A idle:     %.1f -> %.1f us "
                "(%+.1f%%, paper: clear improvement)\n",
                nt_aw, t_aw, 100 * (t_aw / nt_aw - 1.0));
}

} // namespace

AW_BENCH_MAIN(reproduce)
