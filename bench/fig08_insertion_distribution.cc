/**
 * @file
 * Paper Figure 8: distribution of the LRU-stack position at which
 * prefetched blocks are inserted under Dynamic Insertion. Polluting
 * codes insert at/near LRU; clean streaming codes insert at MID.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "workload/spec_suite.hh"

using namespace fdp;

int
main(int argc, char **argv)
{
    const SweepArgs args = parseSweepArgs(argc, argv, 8'000'000);
    const auto results =
        runSweep(args, "fig08_insertion_distribution",
                 memoryIntensiveBenchmarks(),
                 {{"dyn-ins", RunConfig::dynamicInsertion()}});

    Table t("Figure 8: distribution of the insertion position of "
            "prefetched blocks (fraction of prefetch fills)");
    t.setHeader({"benchmark", "LRU", "LRU-4", "MID", "MRU"});
    for (const RunResult &r : results[0]) {
        std::vector<std::string> row = {r.benchmark};
        for (double f : r.insertDist)
            row.push_back(fmtPercent(f, 1));
        t.addRow(std::move(row));
    }
    t.print();
    std::printf("\nPaper: benchmarks best served by static LRU insertion "
                "(art, ammp) place >50%% of prefetched blocks at LRU.\n"
                "Note: the dynamic policy never chooses MRU (paper "
                "Section 3.3.2 footnote).\n");
    return 0;
}
