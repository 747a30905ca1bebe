/**
 * @file
 * Smoke tests for the awsim CLI: run the binary end to end and
 * check its output structure. The binary path comes from the
 * AWSIM_BIN compile definition set by CMake.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <ostream>
#include <regex>
#include <string>
#include <vector>

#include "cluster/routing.hh"
#include "cstate/governors.hh"
#include "exp/spec.hh"
#include "freq/policies.hh"
#include "server/config.hh"

namespace {

#ifndef AWSIM_BIN
#define AWSIM_BIN "./awsim"
#endif

/** Run a command, capture stdout, return (exit_code, output). */
std::pair<int, std::string>
runCommand(const std::string &cmd)
{
    std::array<char, 4096> buf{};
    std::string out;
    FILE *pipe = popen((cmd + " 2>&1").c_str(), "r");
    if (!pipe)
        return {-1, ""};
    while (fgets(buf.data(), buf.size(), pipe))
        out += buf.data();
    const int status = pclose(pipe);
    return {WEXITSTATUS(status), out};
}

TEST(AwsimTool, HelpExitsZero)
{
    const auto [code, out] = runCommand(std::string(AWSIM_BIN) +
                                        " --help");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("--workload"), std::string::npos);
    EXPECT_NE(out.find("--config"), std::string::npos);
}

/** True if @p name appears in @p text as a whole word (not as a
 *  piece of a longer name such as "aw" in "nt_aw"). */
bool
listsName(const std::string &text, const std::string &name)
{
    return std::regex_search(
        text, std::regex("(^|[^A-Za-z0-9_-])" + name +
                         "($|[^A-Za-z0-9_-])"));
}

TEST(AwsimTool, HelpListsEveryTableName)
{
    // The usage text is hand-written; every row of every name table
    // must show up in it, so a new row cannot go unadvertised.
    const auto [code, out] = runCommand(std::string(AWSIM_BIN) +
                                        " --help");
    ASSERT_EQ(code, 0);
    for (const auto *names :
         {&aw::exp::workloadNames(), &aw::exp::configNames(),
          &aw::cstate::governorKinds(), &aw::freq::freqPolicyKinds(),
          &aw::cluster::routingPolicyNames(),
          &aw::server::dispatchPolicyNames()}) {
        ASSERT_FALSE(names->empty());
        for (const auto &name : *names)
            EXPECT_TRUE(listsName(out, name)) << name;
    }
}

TEST(AwsimTool, BasicRunProducesMetrics)
{
    const auto [code, out] = runCommand(
        std::string(AWSIM_BIN) +
        " --workload memcached --config aw --qps 50000 "
        "--seconds 0.2 --seed 3");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("avg core power"), std::string::npos);
    EXPECT_NE(out.find("p99 latency"), std::string::npos);
    EXPECT_NE(out.find("C6A="), std::string::npos);
}

TEST(AwsimTool, EstimateFlagPrintsEq4)
{
    const auto [code, out] = runCommand(
        std::string(AWSIM_BIN) +
        " --workload memcached --config nt_baseline --qps 50000 "
        "--seconds 0.2 --estimate-aw");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("Eq. 4"), std::string::npos);
}

TEST(AwsimTool, PackageFlagPrintsPkgResidency)
{
    const auto [code, out] = runCommand(
        std::string(AWSIM_BIN) +
        " --workload memcached --config aw --qps 5000 "
        "--seconds 0.3 --package");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("PC6="), std::string::npos);
}

TEST(AwsimTool, GovernorFlagChangesThePolicy)
{
    const std::string base =
        std::string(AWSIM_BIN) +
        " --workload memcached --config c1c6 --qps 50000 "
        "--seconds 0.2";
    const auto menu = runCommand(base);
    const auto pinned = runCommand(base + " --governor static:C6");
    EXPECT_EQ(menu.first, 0);
    EXPECT_EQ(pinned.first, 0);
    EXPECT_NE(menu.second.find("governor=menu"), std::string::npos);
    EXPECT_NE(pinned.second.find("governor=static:C6"),
              std::string::npos);
    // Always-C6 actually parks in C6; menu's mispredictions never
    // let the legacy hierarchy get there (the Sec 1 claim).
    EXPECT_EQ(menu.second.find("C6="), std::string::npos);
    EXPECT_NE(pinned.second.find("C6="), std::string::npos);
}

TEST(AwsimTool, UnknownGovernorFails)
{
    const auto [code, out] = runCommand(
        std::string(AWSIM_BIN) + " --governor crystal_ball");
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("unknown governor"), std::string::npos);
}

TEST(AwsimTool, DispatchFlagParsesRegistryNames)
{
    const auto [code, out] = runCommand(
        std::string(AWSIM_BIN) +
        " --workload memcached --config nt_baseline --qps 50000 "
        "--seconds 0.1 --dispatch packing");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("dispatch=packing"), std::string::npos);

    const auto bad = runCommand(std::string(AWSIM_BIN) +
                                " --dispatch hash_ring");
    EXPECT_NE(bad.first, 0);
    EXPECT_NE(bad.second.find("unknown dispatch policy"),
              std::string::npos);
}

TEST(AwsimTool, UnknownWorkloadFails)
{
    const auto [code, out] = runCommand(
        std::string(AWSIM_BIN) + " --workload tetris");
    EXPECT_NE(code, 0);
    EXPECT_NE(out.find("unknown workload"), std::string::npos);
}

TEST(AwsimTool, UnknownConfigFails)
{
    const auto [code, out] = runCommand(
        std::string(AWSIM_BIN) + " --config warp_drive");
    EXPECT_NE(code, 0);
}

/** Every row must die (exit 1) with the given needle on stderr. */
struct BadFlag
{
    const char *args;
    const char *needle;
};

/** Name the test case by its flags, not by the row's addresses. */
void
PrintTo(const BadFlag &f, std::ostream *os)
{
    *os << f.args;
}

class AwsimToolRejects : public ::testing::TestWithParam<BadFlag>
{};

TEST_P(AwsimToolRejects, DegenerateValueUpFront)
{
    const auto [code, out] = runCommand(
        std::string(AWSIM_BIN) + " " + GetParam().args);
    EXPECT_EQ(code, 1) << out;
    EXPECT_NE(out.find(GetParam().needle), std::string::npos)
        << out;
}

INSTANTIATE_TEST_SUITE_P(
    Validation, AwsimToolRejects,
    ::testing::Values(
        BadFlag{"--qps 0", "positive"},
        BadFlag{"--qps -500", "positive"},
        BadFlag{"--qps banana", "bad value"},
        BadFlag{"--seconds -1", ">= 0"},
        BadFlag{"--warmup -0.2", ">= 0"},
        BadFlag{"--warmup 0.1", "needs an explicit window (--seconds"},
        BadFlag{"--cores 0", "at least 1 core"},
        BadFlag{"--cores -4", "bad value"},
        BadFlag{"--seed -7", "bad value"},
        BadFlag{"--snoops -1", ">= 0"},
        BadFlag{"--fleet 0", "at least 1 server"},
        BadFlag{"--fleet 8 --fleet-threads 0", "at least 1"},
        BadFlag{"--fleet 8 --epoch 0", "positive"},
        BadFlag{"--fleet 8 --epoch -0.5", "positive"},
        BadFlag{"--fleet-threads 2", "requires --fleet"},
        BadFlag{"--epoch 0.1", "requires --fleet"},
        BadFlag{"--fleet 2 --estimate-aw", "single-server only"},
        BadFlag{"--fleet 2 --diurnal-period 0.5", "needs a load shape"},
        BadFlag{"--fleet 2 --diurnal 0 --diurnal-period 0.5",
                "needs a load shape"},
        BadFlag{"--fleet 2 --route round-robin --pack-cap 3",
                "needs --route pack-first"},
        BadFlag{"--fleet 2 --pack-cap 3", "needs --route pack-first"}));

TEST(AwsimTool, DeterministicForFixedSeed)
{
    const std::string cmd =
        std::string(AWSIM_BIN) +
        " --workload kafka --config c1c6 --qps 2000 --seconds 0.3 "
        "--seed 11";
    const auto a = runCommand(cmd);
    const auto b = runCommand(cmd);
    EXPECT_EQ(a.first, 0);
    EXPECT_EQ(a.second, b.second);
}

} // namespace
