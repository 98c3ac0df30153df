/**
 * @file
 * Paper Figure 7: Dynamic Insertion vs. static LRU / LRU-4 / MID / MRU
 * insertion of prefetched blocks, on a Very Aggressive prefetcher.
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
        {"LRU", RunConfig::staticLevelConfig(5, InsertPos::Lru)},
        {"LRU-4", RunConfig::staticLevelConfig(5, InsertPos::Lru4)},
        {"MID", RunConfig::staticLevelConfig(5, InsertPos::Mid)},
        {"MRU", RunConfig::staticLevelConfig(5, InsertPos::Mru)},
        {"Dynamic Insertion", RunConfig::dynamicInsertion()},
    };

    const std::vector<std::string> names = labelsOf(configs);
    const auto results =
        runSweep(args, "fig07_dynamic_insertion", benches, configs);

    buildMetricTable("Figure 7: dynamic adjustment of the prefetch "
                     "insertion policy (IPC, Very Aggressive prefetcher)",
                     benches, names, results, metricIpc, 3,
                     MeanKind::Geometric)
        .print();

    std::printf(
        "\nDynamic Insertion vs MRU: %s IPC (paper: +5.1%%)\n",
        fmtPercent(meanDelta(results[3], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str());
    std::printf(
        "Dynamic Insertion vs LRU-4 (best static): %s IPC (paper: +1.9%%)\n",
        fmtPercent(meanDelta(results[1], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str());
    return 0;
}
