/**
 * @file
 * Paper Figure 6: distribution of the Dynamic Configuration Counter
 * value over all sampling intervals under Dynamic Aggressiveness.
 * Pollution victims (art, ammp) live at Very Conservative; streaming
 * winners live at Aggressive / Very Aggressive.
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
        runSweep(args, "fig06_counter_distribution",
                 memoryIntensiveBenchmarks(),
                 {{"dyn", RunConfig::dynamicAggressiveness()}});

    Table t("Figure 6: distribution of the dynamic aggressiveness level "
            "(fraction of sampling intervals)");
    t.setHeader({"benchmark", "VeryCons(1)", "Cons(2)", "Middle(3)",
                 "Aggr(4)", "VeryAggr(5)"});
    for (const RunResult &r : results[0]) {
        std::vector<std::string> row = {r.benchmark};
        for (double f : r.levelDist)
            row.push_back(fmtPercent(f, 1));
        t.addRow(std::move(row));
    }
    t.print();
    std::printf("\nPaper: art/ammp sit at Very Conservative in >98%% of "
                "intervals; swim-class codes sit at Very Aggressive.\n");
    return 0;
}
