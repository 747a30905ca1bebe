/**
 * @file
 * The flag tables of awsim, awsweep and awperf.
 *
 * A tool's command line is one table of Flag rows, in --help order.
 * parseFlags() reads argv against it and printUsage() prints --help
 * from it, so a flag's parsing, validation, prerequisite and help
 * text sit in one row. The flags awsim and awsweep share are declared
 * once (cli.cc) and fill one SharedFlags; awsweep's grid-axis flags
 * are generated from the exp::axes() registry. Adding a knob is one
 * row.
 */

#ifndef AW_EXP_CLI_HH
#define AW_EXP_CLI_HH

#include <functional>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/spec.hh"

namespace aw::exp {

/** One command-line flag. */
struct Flag
{
    const char *name = nullptr;
    /** The value's placeholder in --help; nullptr for a switch. */
    const char *metavar = nullptr;
    /** --help text; each '\n' continues it on an indented line. */
    const char *help = "";
    /** The name table the help text lists (nullptr = none). */
    const std::vector<std::string> &(*names)() = nullptr;
    /** Heading of the --help section this row opens. */
    const char *section = nullptr;
    /** Parse and validate @p value (nullptr for a switch) and store
     *  it; fatal() naming @p flag on a bad value. */
    std::function<void(const char *flag, const char *value)> set{};
    /** The prerequisite: a given flag whose met() is false fails
     *  parsing with "<name> <needs>". */
    const char *needs = nullptr;
    std::function<bool()> met{};
};

using FlagTable = std::vector<Flag>;

/**
 * Read argv against @p flags, then check the given rows'
 * prerequisites. Values are stored in table order, whatever their
 * argv order, so a row may edit what an earlier row built (awsim's
 * --config picks the server config its later rows adjust). --help or
 * -h prints the usage (@p title, then every row) and returns false.
 * A missing value, an unknown argument or an unmet prerequisite is
 * fatal().
 */
bool parseFlags(int argc, char **argv, const char *title,
                const FlagTable &flags);

/** The artifact paths of the flags awsim and awsweep share. Their
 *  other values land in an ExperimentSpec's run shaping, which
 *  shapeRun() resolves for awsim and for every sweep point alike. */
struct SharedFlags
{
    std::string timelineCsv;
    std::string timelineJson;
    std::string traceCsv;
    std::string traceJson;
};

/** awsim's command line. */
struct SimArgs
{
    ExperimentSpec shaping; //!< only its run shaping is read
    SharedFlags shared;
    /** fleet.server starts as the baseline config. */
    RunSpec run{.profile = profileByName("memcached"), .qps = 100e3};
    bool estimateAw = false;
    double diurnal = 0.0;
    double diurnalPeriod = 1.0;
    double flash = 0.0;
    std::string traceChrome;
};

/** awsweep's command line. */
struct SweepArgs
{
    SharedFlags shared;
    ExperimentSpec spec{.name = "awsweep"};
    unsigned threads = 0; //!< 0 = hardware concurrency
    std::string csv;
    std::string json;
    bool quiet = false;
};

/** awperf's command line. */
struct PerfArgs
{
    std::vector<std::string> scenarios; //!< empty = all
    unsigned repeat = 3;
    std::string json;
    bool quiet = false;
    bool list = false;
};

/** @{ Each tool's table, writing into @p a. */
FlagTable awsimFlags(SimArgs &a);
FlagTable awsweepFlags(SweepArgs &a);
FlagTable awperfFlags(PerfArgs &a);
/** @} */

} // namespace aw::exp

#endif // AW_EXP_CLI_HH
