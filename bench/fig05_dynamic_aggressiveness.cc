/**
 * @file
 * Paper Figure 5: Dynamic Aggressiveness (FDP throttling only, MRU
 * insertion) vs. the four traditional configurations. The dynamic
 * mechanism should track the best-performing static configuration per
 * benchmark and eliminate the large art/ammp losses.
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
        {"Very Conservative", RunConfig::staticLevelConfig(1)},
        {"Middle-of-the-Road", RunConfig::staticLevelConfig(3)},
        {"Very Aggressive", RunConfig::staticLevelConfig(5)},
        {"Dynamic Aggr.", RunConfig::dynamicAggressiveness()},
    };

    const std::vector<std::string> names = labelsOf(configs);
    const auto results =
        runSweep(args, "fig05_dynamic_aggressiveness", benches, configs);

    buildMetricTable("Figure 5: dynamic adjustment of prefetcher "
                     "aggressiveness (IPC)",
                     benches, names, results, metricIpc, 3,
                     MeanKind::Geometric)
        .print();

    std::printf(
        "\nDynamic Aggressiveness vs Very Aggressive: %s IPC "
        "(paper: +4.7%%)\n",
        fmtPercent(meanDelta(results[3], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str());
    std::printf(
        "Dynamic Aggressiveness vs Middle-of-the-Road: %s IPC "
        "(paper: +11.9%%)\n",
        fmtPercent(meanDelta(results[2], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str());

    // The paper's headline: the big losses disappear.
    for (std::size_t b = 0; b < benches.size(); ++b) {
        if (benches[b] != "art" && benches[b] != "ammp")
            continue;
        const double va = (results[3][b].ipc / results[0][b].ipc) - 1.0;
        const double dyn = (results[4][b].ipc / results[0][b].ipc) - 1.0;
        std::printf("%s vs no prefetching: Very Aggressive %s, Dynamic %s\n",
                    benches[b].c_str(), fmtPercent(va).c_str(),
                    fmtPercent(dyn).c_str());
    }
    return 0;
}
