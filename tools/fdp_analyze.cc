/**
 * @file
 * fdp_analyze: semantic static analysis for the FDP simulator.
 *
 * A self-contained C++20 analyzer (no libclang/clang-tidy/cppcheck
 * dependency) enforcing the repo's determinism, layering, and audit
 * contracts over a real token stream. See tools/analyze/checks.hh for
 * the rule catalog and DESIGN.md section 14 for the architecture.
 *
 * Usage:
 *   fdp_analyze [--root DIR]                 analyze, print findings
 *   fdp_analyze --json FILE                  also write fdp-findings-v1
 *   fdp_analyze --self-test [--corpus DIR]   prove checks non-vacuous
 *   fdp_analyze --list-checks                print the rule catalog
 *
 * Every finding fails: the one way to tolerate one is an inline
 * `fdp-analyze: suppress(rule, reason)` at the site.
 *
 * Exit status: 0 clean, 1 findings or self-test failures, 2 usage or
 * I/O errors.
 */

#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/analyzer.hh"
#include "analyze/checks.hh"

namespace
{

int
usage()
{
    std::cerr << "usage: fdp_analyze [--root DIR] [--json FILE]\n"
                 "                   [--self-test] [--corpus DIR]\n"
                 "                   [--list-checks]\n";
    return 2;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    out.flush();
    if (!out) {
        std::cerr << "fdp_analyze: cannot write " << path << "\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace fdp::analyze;

    std::string root = ".";
    std::string jsonPath, corpus;
    bool selfTest = false, listChecks = false;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= args.size()) {
                std::cerr << "fdp_analyze: " << flag << " needs a value\n";
                std::exit(usage());
            }
            return args[++i];
        };
        if (args[i] == "--root")
            root = value("--root");
        else if (args[i] == "--json")
            jsonPath = value("--json");
        else if (args[i] == "--corpus")
            corpus = value("--corpus");
        else if (args[i] == "--self-test")
            selfTest = true;
        else if (args[i] == "--list-checks")
            listChecks = true;
        else
            return usage();
    }

    if (listChecks) {
        for (const CheckInfo &c : checkCatalog())
            std::cout << c.rule << "  -  " << c.summary << "\n";
        return 0;
    }

    try {
        if (selfTest) {
            if (corpus.empty())
                corpus = root + "/tests/analyze/corpus";
            return runSelfTest(corpus, std::cout) == 0 ? 0 : 1;
        }

        const std::vector<Finding> findings = analyzeTree(root);

        if (!jsonPath.empty() &&
            !writeFile(jsonPath, toFindingsJson(findings)))
            return 2;
        printFindings(std::cout, findings);
        if (!findings.empty()) {
            std::cout << "fdp_analyze: " << findings.size()
                      << " finding(s)\n";
            return 1;
        }
        std::cout << "fdp_analyze: clean\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "fdp_analyze: " << e.what() << "\n";
        return 2;
    }
}
