/**
 * @file
 * The flag-table walker: one case per row of every tool's table
 * (exp/cli.hh), each run against the built binary. A row's flag must
 * appear in its tool's --help; a missing value must fail with "needs
 * a value"; a numeric row must reject "banana" and "nan" as a bad
 * value; and a row with a prerequisite must fail with its own message
 * when the prerequisite is not met. The binary paths come from the
 * AWSIM_BIN, AWSWEEP_BIN and AWPERF_BIN compile definitions.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "exp/cli.hh"

namespace {

using namespace aw;

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

/** What the walker needs of one row, copied out of the table. */
struct Row
{
    std::string tool;
    std::string bin;
    std::string name;
    std::string metavar; //!< "" for a switch
    std::string needs;   //!< "" without a prerequisite
    /** The tool's defaults already meet the prerequisite, so the
     *  case adds --fleet (the one thing a single-server-only row
     *  cannot have) to break it. */
    bool metAlone = false;
    std::string sample; //!< a valid value
};

void
PrintTo(const Row &r, std::ostream *os)
{
    *os << r.tool << ' ' << r.name;
}

void
addRows(std::vector<Row> &out, const char *tool, const char *bin,
        const exp::FlagTable &flags)
{
    for (const exp::Flag &f : flags) {
        Row r;
        r.tool = tool;
        r.bin = bin;
        r.name = f.name;
        if (f.metavar) {
            r.metavar = f.metavar;
            r.sample = f.names            ? f.names().front()
                       : r.metavar == "N" ? "2"
                                          : "0.5";
        }
        if (f.needs) {
            r.needs = f.needs;
            r.metAlone = f.met();
        }
        out.push_back(r);
    }
}

std::vector<Row>
allRows()
{
    std::vector<Row> rows;
    exp::SimArgs sim;
    addRows(rows, "awsim", AWSIM_BIN, exp::awsimFlags(sim));
    exp::SweepArgs sweep;
    addRows(rows, "awsweep", AWSWEEP_BIN, exp::awsweepFlags(sweep));
    exp::PerfArgs perf;
    addRows(rows, "awperf", AWPERF_BIN, exp::awperfFlags(perf));
    return rows;
}

class FlagTableWalk : public ::testing::TestWithParam<Row>
{};

TEST_P(FlagTableWalk, RowIsDocumentedAndValidated)
{
    const Row &r = GetParam();
    const auto help = runCommand(r.bin + " --help");
    ASSERT_EQ(help.first, 0);
    EXPECT_NE(help.second.find(
                  "\n  " + r.name +
                  (r.metavar.empty() ? " " : " " + r.metavar)),
              std::string::npos)
        << help.second;

    if (!r.metavar.empty()) {
        const auto [code, out] = runCommand(r.bin + " " + r.name);
        EXPECT_EQ(code, 1) << out;
        EXPECT_NE(out.find(r.name + " needs a value"),
                  std::string::npos)
            << out;
    }

    static const std::set<std::string> kNumeric = {
        "N", "N,M", "S", "A", "US", "WATTS", "SPIKE"};
    if (kNumeric.count(r.metavar)) {
        for (const char *bad : {"banana", "nan"}) {
            const auto [code, out] =
                runCommand(r.bin + " " + r.name + " " + bad);
            EXPECT_EQ(code, 1) << bad << ": " << out;
            EXPECT_NE(out.find("bad value"), std::string::npos)
                << bad << ": " << out;
        }
    }

    if (!r.needs.empty()) {
        const auto [code, out] = runCommand(
            r.bin + (r.metAlone ? " --fleet 2 " : " ") + r.name + " " +
            r.sample);
        EXPECT_EQ(code, 1) << out;
        EXPECT_NE(out.find(r.name + " " + r.needs), std::string::npos)
            << out;
    }
}

std::string
caseName(const ::testing::TestParamInfo<Row> &info)
{
    std::string name = info.param.tool + "_" + info.param.name.substr(2);
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(EveryRow, FlagTableWalk,
                         ::testing::ValuesIn(allRows()), caseName);

TEST(FlagTable, SharedFlagsAreDeclaredOnce)
{
    // awsim and awsweep take every flag they share from the same
    // row: the same help text and prerequisite, by address.
    exp::SimArgs sim;
    exp::SweepArgs sweep;
    const auto awsim = exp::awsimFlags(sim);
    const auto awsweep = exp::awsweepFlags(sweep);
    const auto find = [](const exp::FlagTable &t, const char *name) {
        for (const exp::Flag &f : t)
            if (std::string(f.name) == name)
                return &f;
        return static_cast<const exp::Flag *>(nullptr);
    };
    for (const char *name :
         {"--seconds", "--warmup", "--cores", "--seed", "--dispatch",
          "--thermal", "--fleet-threads", "--epoch", "--timeline",
          "--timeline-json", "--timeline-interval", "--trace-requests",
          "--trace-requests-json"}) {
        const exp::Flag *a = find(awsim, name);
        const exp::Flag *b = find(awsweep, name);
        ASSERT_TRUE(a && b) << name;
        EXPECT_EQ(a->help, b->help) << name;
        EXPECT_EQ(a->needs, b->needs) << name;
    }
}

} // namespace
