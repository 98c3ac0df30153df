/**
 * @file
 * Paper Figure 9: overall performance of FDP. Five configurations:
 * No Prefetching, Very Aggressive, Very Aggressive + Dynamic Insertion,
 * Dynamic Aggressiveness, and full FDP (Dynamic Aggressiveness +
 * Dynamic Insertion).
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
    const auto &benches = memoryIntensiveBenchmarks();

    const std::vector<LabeledConfig> configs = {
        {"No Prefetching", RunConfig::noPrefetching()},
        {"Very Aggressive", RunConfig::staticLevelConfig(5)},
        {"VA + Dyn. Insertion", RunConfig::dynamicInsertion()},
        {"Dynamic Aggr.", RunConfig::dynamicAggressiveness()},
        {"Dyn. Aggr. + Dyn. Ins.", RunConfig::fullFdp()},
    };
    const std::vector<std::string> names = labelsOf(configs);
    const auto results = runSweep(args, "fig09_overall", benches, configs);

    buildMetricTable("Figure 9: overall performance of FDP (IPC)", benches,
                     names, results, metricIpc, 3, MeanKind::Geometric)
        .print();

    std::printf(
        "\nFull FDP vs Very Aggressive (best static): %s IPC "
        "(paper: +6.5%%)\n",
        fmtPercent(meanDelta(results[1], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str());

    // Paper: with full FDP no benchmark loses vs no prefetching.
    int losers = 0;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        if (results[4][b].ipc < results[0][b].ipc * 0.995) {
            ++losers;
            std::printf("  %s still loses: %.3f vs %.3f\n",
                        benches[b].c_str(), results[4][b].ipc,
                        results[0][b].ipc);
        }
    }
    if (losers == 0)
        std::printf("No benchmark loses vs no prefetching under full FDP "
                    "(matches paper).\n");
    return 0;
}
