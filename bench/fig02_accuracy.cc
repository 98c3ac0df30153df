/**
 * @file
 * Paper Figure 2: IPC (left) and prefetch accuracy (right) of the four
 * traditional stream-prefetcher configurations. Accuracy below 40%
 * (A_low) marks the benchmarks where prefetching always hurts.
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
        {"Very Conservative", RunConfig::staticLevelConfig(1)},
        {"Middle-of-the-Road", RunConfig::staticLevelConfig(3)},
        {"Very Aggressive", RunConfig::staticLevelConfig(5)},
    };

    const std::vector<std::string> names = labelsOf(configs);
    const auto results = runSweep(args, "fig02_accuracy", benches, configs);

    buildMetricTable("Figure 2 (left): IPC per configuration", benches,
                     names, results, metricIpc, 3, MeanKind::Geometric)
        .print();
    buildMetricTable("Figure 2 (right): prefetch accuracy", benches, names,
                     results, metricAccuracy, 3, MeanKind::Arithmetic)
        .print();

    std::printf("\nBenchmarks with Very Aggressive accuracy below A_low "
                "(0.40), where the paper finds prefetching always "
                "degrades performance:\n ");
    for (std::size_t b = 0; b < benches.size(); ++b)
        if (results[2][b].accuracy < 0.40)
            std::printf(" %s", benches[b].c_str());
    std::printf("\n");
    return 0;
}
