/**
 * @file
 * Paper Figure 3: IPC (left) and prefetch lateness (right) with the
 * traditional configurations. Lateness falls as aggressiveness rises
 * (requests are issued earlier); mcf stays extremely late at every
 * configuration because its demand rate exceeds the bus.
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
    const auto results = runSweep(args, "fig03_lateness", benches, configs);

    buildMetricTable("Figure 3 (left): IPC per configuration", benches,
                     names, results, metricIpc, 3, MeanKind::Geometric)
        .print();
    buildMetricTable("Figure 3 (right): prefetch lateness", benches, names,
                     results, metricLateness, 3, MeanKind::Arithmetic)
        .print();

    // The paper's headline lateness observations.
    for (std::size_t b = 0; b < benches.size(); ++b) {
        if (benches[b] == "mcf") {
            std::printf("\nmcf: accuracy %.2f, lateness %.2f at Very "
                        "Conservative (paper: ~1.0 accuracy, >0.9 late)\n",
                        results[0][b].accuracy, results[0][b].lateness);
        }
    }
    return 0;
}
