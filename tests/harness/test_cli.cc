/**
 * @file
 * Tests for the flag-table command-line parser: values and switches
 * reach their setters in argv order, repeated flags call the setter
 * once per occurrence, an unknown flag or a missing value is a clean
 * fatal naming it, and the generated help lists every flag with its
 * metavar. The operand form returns the other arguments in order and
 * rejects an unknown "--" argument the same way.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cli.hh"

namespace fdp
{
namespace
{

/** argv for parseFlags from string literals. */
char **
args(std::vector<const char *> &argv)
{
    return const_cast<char **>(argv.data());
}

/** A binary's table: --bench/--mix repeat, --out takes a value, --quick
 *  is a switch. */
struct Parsed
{
    std::vector<std::string> benches;
    std::vector<std::string> mixes;
    std::string out;
    int quick = 0;

    std::vector<Flag>
    flags()
    {
        return {
            {"--bench", "NAME", "benchmark (repeatable)",
             [this](const char *v) { benches.emplace_back(v); }},
            {"--mix", "NAME", "mix (repeatable)",
             [this](const char *v) { mixes.emplace_back(v); }},
            {"--out", "PATH", "results file\nsecond help line",
             [this](const char *v) { out = v; }},
            {"--quick", "", "short run", [this](const char *v) {
                 EXPECT_EQ(v, nullptr);
                 ++quick;
             }},
        };
    }
};

TEST(Cli, ValuesAndSwitchesReachTheirSetters)
{
    Parsed p;
    std::vector<const char *> argv = {"prog", "--out", "r.json", "--quick"};
    parseFlags(static_cast<int>(argv.size()), args(argv), p.flags());
    EXPECT_EQ(p.out, "r.json");
    EXPECT_EQ(p.quick, 1);
    EXPECT_TRUE(p.benches.empty());
}

TEST(Cli, RepeatedFlagCallsItsSetterPerOccurrence)
{
    Parsed p;
    std::vector<const char *> argv = {"prog",   "--bench", "swim",
                                      "--mix",  "mix4-bw", "--bench",
                                      "art",    "--mix",   "mix2-stream",
                                      "--out",  "a.json",  "--out",
                                      "b.json"};
    parseFlags(static_cast<int>(argv.size()), args(argv), p.flags());
    EXPECT_EQ(p.benches, (std::vector<std::string>{"swim", "art"}));
    EXPECT_EQ(p.mixes, (std::vector<std::string>{"mix4-bw", "mix2-stream"}));
    EXPECT_EQ(p.out, "b.json");  // a single-valued flag: last one wins
}

TEST(Cli, HelpListsEveryFlagWithItsMetavar)
{
    Parsed p;
    const std::string help = flagHelp("prog", p.flags());
    EXPECT_EQ(help.rfind("usage: prog [flags]\n", 0), 0u) << help;
    for (const char *line :
         {"  --bench NAME  benchmark (repeatable)\n",
          "  --mix NAME    mix (repeatable)\n",
          "  --out PATH    results file\n                second help line\n",
          "  --quick       short run\n"})
        EXPECT_NE(help.find(line), std::string::npos) << line << help;
}

TEST(CliDeath, UnknownFlagIsFatalNamingItWithHelp)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Parsed p;
    std::vector<const char *> argv = {"bin/prog", "--quick", "--bogus"};
    EXPECT_EXIT(parseFlags(3, args(argv), p.flags()),
                testing::ExitedWithCode(1),
                "unknown flag `--bogus'.*usage: prog \\[flags\\].*"
                "--mix NAME");
}

TEST(CliDeath, StrayPositionalArgumentIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Parsed p;
    std::vector<const char *> argv = {"prog", "swim"};
    EXPECT_EXIT(parseFlags(2, args(argv), p.flags()),
                testing::ExitedWithCode(1), "unknown flag `swim'");
}

TEST(CliDeath, MissingValueIsFatalNamingTheFlag)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Parsed p;
    std::vector<const char *> argv = {"prog", "--bench", "swim", "--out"};
    EXPECT_EXIT(parseFlags(4, args(argv), p.flags()),
                testing::ExitedWithCode(1),
                "--out requires a value \\(PATH\\).*usage: prog");
}

TEST(CliDeath, EmptyTableRejectsEveryFlag)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<const char *> argv = {"prog", "--insts", "5"};
    EXPECT_EXIT(parseFlags(3, args(argv), {}), testing::ExitedWithCode(1),
                "unknown flag `--insts'");
}

TEST(Cli, OperandsReturnInOrderAroundTheFlags)
{
    Parsed p;
    std::vector<const char *> argv = {"prog", "gc",    "a",  "--out",
                                      "r.json", "b", "--quick", "c"};
    const std::vector<std::string> operands =
        parseArgs(static_cast<int>(argv.size()), args(argv), 2, p.flags(),
                  "usage: prog gc DIR\n");
    EXPECT_EQ(operands, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(p.out, "r.json");  // a flag's value is never an operand
    EXPECT_EQ(p.quick, 1);
}

TEST(Cli, OperandsAloneNeedNoTable)
{
    std::vector<const char *> argv = {"prog", "info", "x.fdptrace"};
    EXPECT_EQ(parseArgs(3, args(argv), 2, {}, ""),
              (std::vector<std::string>{"x.fdptrace"}));
    EXPECT_TRUE(parseArgs(2, args(argv), 2, {}, "").empty());
}

TEST(CliDeath, UnknownFlagAmongOperandsIsFatalWithTheUsage)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Parsed p;
    std::vector<const char *> argv = {"prog", "gc", "dir", "--dryrun"};
    EXPECT_EXIT(parseArgs(4, args(argv), 2, p.flags(),
                          "usage: prog gc DIR\n"),
                testing::ExitedWithCode(1),
                "unknown flag `--dryrun'.*usage: prog gc DIR");
}

TEST(CliDeath, OperandFormMissingValueIsFatalNamingTheFlag)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    Parsed p;
    std::vector<const char *> argv = {"prog", "diff", "a", "--out"};
    EXPECT_EXIT(parseArgs(4, args(argv), 2, p.flags(), "usage: prog\n"),
                testing::ExitedWithCode(1),
                "--out requires a value \\(PATH\\)");
}

} // namespace
} // namespace fdp
