/**
 * @file
 * The one command-line parser of the simulator binaries. Each binary
 * (or subcommand) declares the flags it honours once, as a table of
 * Flag entries whose setters validate a value straight into its typed
 * field; parseFlags() or, for a subcommand with operands, parseArgs()
 * walks argv against that table. Anything the table does not name, or
 * a flag missing its value, is a fatal() that names the flag and
 * prints the help generated from the same table, before the binary
 * simulates anything.
 */

#ifndef FDP_HARNESS_CLI_HH
#define FDP_HARNESS_CLI_HH

#include <functional>
#include <string>
#include <vector>

namespace fdp
{

/** One command-line flag. */
struct Flag
{
    /** As typed, e.g. "--insts". */
    std::string name;
    /** The value's placeholder in help ("N", "PATH"); empty for a
     *  switch, which takes no value. */
    std::string metavar;
    /** What the flag does; '\n' starts an indented continuation line. */
    std::string help;
    /** Validate and store one occurrence's value (nullptr for a
     *  switch). Called once per occurrence, in argv order, so a
     *  repeatable flag appends and any other flag's last value wins. */
    std::function<void(const char *value)> set;
};

/** Usage text for @p program: one aligned line per flag. */
std::string flagHelp(const std::string &program,
                     const std::vector<Flag> &flags);

/**
 * Apply argv[1..argc) to @p flags. An argument no flag names (--help
 * included), or a flag with a metavar as the last argument, is a
 * fatal() naming it, followed by flagHelp() for the binary.
 */
void parseFlags(int argc, char **argv, const std::vector<Flag> &flags);

/**
 * The same walk for a subcommand that also takes operands: apply
 * argv[first..argc) to @p flags and return the arguments that do not
 * start with "--", in order. An argument starting with "--" that no
 * flag names, or a flag missing its value, is a fatal() naming it,
 * followed by @p usage, before the caller reads or creates any file.
 */
std::vector<std::string> parseArgs(int argc, char **argv, int first,
                                   const std::vector<Flag> &flags,
                                   const std::string &usage);

} // namespace fdp

#endif // FDP_HARNESS_CLI_HH
