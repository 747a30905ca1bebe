/**
 * @file
 * Smoke and validation tests for the awsweep CLI: run the binary
 * end to end, check artifact plumbing, and pin the up-front
 * rejection of degenerate flag values (a bad --threads or --qps
 * must die with a diagnostic before any worker spawns). The binary
 * path comes from the AWSWEEP_BIN compile definition set by CMake.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <regex>
#include <sstream>
#include <string>

#include "exp/cli.hh"

namespace {

#ifndef AWSWEEP_BIN
#define AWSWEEP_BIN "./awsweep"
#endif

/** Run a command, capture stdout+stderr, return (exit_code, output). */
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

std::string
tmpPath(const std::string &name)
{
    const char *dir = std::getenv("TMPDIR");
    return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(AwsweepTool, HelpExitsZeroAndDocumentsTheKernelKnobs)
{
    const auto [code, out] =
        runCommand(std::string(AWSWEEP_BIN) + " --help");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("--fleet"), std::string::npos);
    EXPECT_NE(out.find("--fleet-threads"), std::string::npos);
    EXPECT_NE(out.find("--epoch"), std::string::npos);
}

TEST(AwsweepTool, HelpListsEveryGovernorName)
{
    // Every name-valued row of the flag table (the idle and DVFS
    // governor axes, --dispatch) lists its name table in its help
    // text as whole words.
    const auto [code, out] =
        runCommand(std::string(AWSWEEP_BIN) + " --help");
    ASSERT_EQ(code, 0);
    aw::exp::SweepArgs args;
    unsigned tables = 0;
    for (const aw::exp::Flag &flag : aw::exp::awsweepFlags(args)) {
        if (!flag.names)
            continue;
        ++tables;
        ASSERT_FALSE(flag.names().empty()) << flag.name;
        for (const auto &name : flag.names())
            EXPECT_TRUE(std::regex_search(
                out, std::regex("(^|[^A-Za-z0-9_-])" + name +
                                "($|[^A-Za-z0-9_-])")))
                << flag.name << ' ' << name;
    }
    EXPECT_EQ(tables, 3u);
}

TEST(AwsweepTool, SmallSweepPrintsTheSummaryTable)
{
    const auto [code, out] = runCommand(
        std::string(AWSWEEP_BIN) +
        " --configs aw --qps 50000 --seconds 0.05 --threads 1");
    EXPECT_EQ(code, 0) << out;
    EXPECT_NE(out.find("points=1"), std::string::npos);
    EXPECT_NE(out.find("memcached"), std::string::npos);
}

TEST(AwsweepTool, KernelKnobsLeaveTheCsvArtifactByteIdentical)
{
    // The CLI-level restatement of the epoch-parallel contract:
    // --fleet-threads and --epoch may change how a fleet point
    // executes, never what it produces.
    const std::string a = tmpPath("awsweep_kernel_a.csv");
    const std::string b = tmpPath("awsweep_kernel_b.csv");
    const std::string base =
        std::string(AWSWEEP_BIN) +
        " --configs aw --policies pack-first --fleet 4 "
        "--qps 80000 --seconds 0.05 --threads 1 --quiet --csv ";
    const auto serial = runCommand(base + a);
    const auto epochal = runCommand(
        base + b + " --fleet-threads 4 --epoch 0.01");
    ASSERT_EQ(serial.first, 0) << serial.second;
    ASSERT_EQ(epochal.first, 0) << epochal.second;
    const std::string bytes_a = readFile(a);
    EXPECT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, readFile(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

// ------------------------------------------- degenerate flag values

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

class AwsweepToolRejects : public ::testing::TestWithParam<BadFlag>
{};

TEST_P(AwsweepToolRejects, DegenerateValueUpFront)
{
    const auto [code, out] = runCommand(
        std::string(AWSWEEP_BIN) + " " + GetParam().args);
    EXPECT_EQ(code, 1) << out;
    EXPECT_NE(out.find("fatal:"), std::string::npos) << out;
    EXPECT_NE(out.find(GetParam().needle), std::string::npos)
        << out;
}

INSTANTIATE_TEST_SUITE_P(
    Validation, AwsweepToolRejects,
    ::testing::Values(
        BadFlag{"--threads 0", "--threads"},
        BadFlag{"--threads -2", "bad value"},
        BadFlag{"--qps 0", "positive"},
        BadFlag{"--qps -100", "positive"},
        BadFlag{"--qps 50000,-1", "positive"},
        BadFlag{"--qps nan", "bad value"},
        BadFlag{"--fleet 0", "at least 1 server"},
        BadFlag{"--fleet 4,0", "at least 1 server"},
        BadFlag{"--replicas 0", "at least 1 replica"},
        BadFlag{"--seconds -1", ">= 0"},
        BadFlag{"--warmup -0.5", ">= 0"},
        BadFlag{"--cores 0", "at least 1 core"},
        BadFlag{"--seed -1", "bad value"},
        BadFlag{"--fleet-threads 0", "at least 1"},
        BadFlag{"--epoch 0", "positive"},
        BadFlag{"--epoch -0.1", "positive"},
        BadFlag{"--timeline-interval 0.01", "--timeline"},
        BadFlag{"--frobnicate", "unknown argument"},
        // Every grid-axis flag rejects a bad value.
        BadFlag{"--caps -1", "--caps"},
        BadFlag{"--slo x", "bad value"},
        BadFlag{"--slo -8", "--slo"},
        BadFlag{"--replicas x", "bad value"},
        BadFlag{"--fleet 2 --policies nope", "unknown routing policy"},
        BadFlag{"--policies round-robin", "fleet-size"},
        BadFlag{"--configs nope", "unknown config"},
        BadFlag{"--workloads nope", "unknown workload"},
        BadFlag{"--governors nope", "unknown governor"},
        BadFlag{"--freq-governors nope",
                "unknown frequency governor"},
        // An empty list is an error, not an unswept axis.
        BadFlag{"--fleet ''", "--fleet: needs at least one value"},
        BadFlag{"--governors ,", "--governors: needs at least one value"}));

} // namespace
