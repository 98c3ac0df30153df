/**
 * @file
 * fdp_results - operate on fdp-results-v1 files and fdp-store-v1
 * sweep result stores.
 *
 *   fdp_results diff BASE.json FRESH.json [--verdict PATH] [--all]
 *   fdp_results ls DIR
 *   fdp_results gc DIR [--keep-rev REV] [--dry-run]
 *   fdp_results merge DST_DIR SRC_DIR...
 *
 * diff compares two results files metric by metric: every entry is a
 * simulated metric and must match exactly (any drift is a
 * simulation-behavior change and fails the diff). Exit status: 0 pass,
 * 1 blocking regressions/missing entries (or any usage/I/O error via
 * fatal, an unknown flag included).
 *
 * ls/gc/merge manage result stores: listing entries, collecting
 * corrupt or superseded-revision entries, and merging stores produced
 * on different machines (stored cells are location-independent by the
 * determinism contract).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/result_store.hh"
#include "harness/results_diff.hh"
#include "sim/logging.hh"
#include "sim/table.hh"

namespace
{

using namespace fdp;

const char kUsage[] =
    "usage: fdp_results <command> ...\n"
    "  diff BASE FRESH [--verdict PATH] [--all]\n"
    "                  compare two fdp-results-v1 files exactly;\n"
    "                  exit 1 when the diff blocks. --verdict also\n"
    "                  writes a machine-readable fdp-diff-v1 file;\n"
    "                  --all prints unchanged entries too\n"
    "  ls DIR          list the entries of a result store\n"
    "  gc DIR [--keep-rev REV] [--dry-run]\n"
    "                  drop corrupt entries, plus entries from\n"
    "                  other binary revisions when --keep-rev is\n"
    "                  given\n"
    "  merge DST SRC...\n"
    "                  copy entries absent from DST out of the SRC\n"
    "                  stores (corrupt sources are skipped)\n";

[[noreturn]] void
usage()
{
    std::fputs(kUsage, stderr);
    std::exit(1);
}

int
cmdDiff(int argc, char **argv)
{
    std::string verdictPath;
    bool everything = false;
    const std::vector<std::string> paths = parseArgs(
        argc, argv, 2,
        {{"--verdict", "PATH", "",
          [&](const char *v) { verdictPath = v; }},
         {"--all", "", "", [&](const char *) { everything = true; }}},
        kUsage);
    if (paths.size() != 2)
        usage();

    ResultsFile base;
    ResultsFile fresh;
    std::string error;
    if (!loadResultsFile(paths[0], &base, &error))
        fatal("diff baseline: %s", error.c_str());
    if (!loadResultsFile(paths[1], &fresh, &error))
        fatal("diff fresh: %s", error.c_str());

    const DiffReport report = diffResults(base, fresh);
    buildDiffTable(report, everything).print();
    if (!verdictPath.empty())
        writeVerdictFile(verdictPath, report, base, fresh);

    if (report.blocking()) {
        std::fprintf(stderr,
                     "fdp_results diff: FAIL (%zu regressed, %zu "
                     "missing)\n",
                     report.regressed, report.missing);
        return 1;
    }
    std::printf("fdp_results diff: pass\n");
    return 0;
}

int
cmdLs(int argc, char **argv)
{
    const std::vector<std::string> dirs =
        parseArgs(argc, argv, 2, {}, kUsage);
    if (dirs.size() != 1)
        usage();
    const ResultStore store(dirs[0]);
    Table table("result store " + store.dir());
    table.setHeader(
        {"entry", "benchmark", "config", "rev", "simcore", "insts"});
    std::size_t corrupt = 0;
    for (const std::string &file : store.entryFiles()) {
        StoreEntry entry;
        std::string error;
        if (!store.readEntry(file, &entry, &error)) {
            warn("ls: %s: %s", file.c_str(), error.c_str());
            ++corrupt;
            continue;
        }
        table.addRow({file.substr(0, 16), entry.benchmark,
                      entry.configLabel, entry.binaryRev,
                      std::to_string(entry.simCoreVersion),
                      std::to_string(entry.result.insts)});
    }
    table.print();
    std::printf("%zu entries (%zu corrupt)\n",
                table.numRows(), corrupt);
    return 0;
}

int
cmdGc(int argc, char **argv)
{
    std::string keepRev;
    bool dryRun = false;
    const std::vector<std::string> dirs = parseArgs(
        argc, argv, 2,
        {{"--keep-rev", "REV", "", [&](const char *v) { keepRev = v; }},
         {"--dry-run", "", "", [&](const char *) { dryRun = true; }}},
        kUsage);
    if (dirs.size() != 1)
        usage();

    const ResultStore store(dirs[0]);
    std::size_t kept = 0;
    std::size_t dropped = 0;
    for (const std::string &file : store.entryFiles()) {
        StoreEntry entry;
        std::string error;
        std::string why;
        if (!store.readEntry(file, &entry, &error))
            why = "corrupt: " + error;
        else if (!keepRev.empty() && entry.binaryRev != keepRev)
            why = "revision " + entry.binaryRev + " != " + keepRev;
        if (why.empty()) {
            ++kept;
            continue;
        }
        ++dropped;
        std::printf("%s %s (%s)\n", dryRun ? "would drop" : "drop",
                    file.c_str(), why.c_str());
        if (!dryRun)
            store.removeEntry(file);
    }
    std::printf("gc: %zu kept, %zu %s\n", kept, dropped,
                dryRun ? "droppable (dry run)" : "dropped");
    return 0;
}

int
cmdMerge(int argc, char **argv)
{
    const std::vector<std::string> dirs =
        parseArgs(argc, argv, 2, {}, kUsage);
    if (dirs.size() < 2)
        usage();
    const ResultStore dst(dirs[0]);
    std::size_t copied = 0;
    std::size_t skipped = 0;
    std::size_t corrupt = 0;
    for (std::size_t i = 1; i < dirs.size(); ++i) {
        const ResultStore src(dirs[i]);
        // Existing destination entries win: same key means same
        // simulated content, so copying again is pure I/O.
        std::vector<std::string> have = dst.entryFiles();
        for (const std::string &file : src.entryFiles()) {
            if (std::find(have.begin(), have.end(), file) != have.end()) {
                ++skipped;
                continue;
            }
            std::string error;
            if (!src.copyEntryTo(file, dst, &error)) {
                warn("merge: %s: %s", file.c_str(), error.c_str());
                ++corrupt;
                continue;
            }
            ++copied;
        }
    }
    std::printf("merge: %zu copied, %zu already present, %zu corrupt\n",
                copied, skipped, corrupt);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    if (cmd == "diff")
        return cmdDiff(argc, argv);
    if (cmd == "ls")
        return cmdLs(argc, argv);
    if (cmd == "gc")
        return cmdGc(argc, argv);
    if (cmd == "merge")
        return cmdMerge(argc, argv);
    usage();
}
