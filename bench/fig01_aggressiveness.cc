/**
 * @file
 * Paper Figure 1: IPC performance vs. static aggressiveness of the
 * stream prefetcher (No Prefetching / Very Conservative /
 * Middle-of-the-Road / Very Aggressive) on the 17 memory-intensive
 * benchmarks. Also prints the Table 1 configurations for reference.
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

    Table cfg("Table 1: stream prefetcher configurations");
    cfg.setHeader({"counter", "aggressiveness", "distance", "degree"});
    for (unsigned level = 1; level <= 5; ++level)
        cfg.addRow({std::to_string(level), aggrLevelName(level),
                    std::to_string(kStreamAggrTable[level].distance),
                    std::to_string(kStreamAggrTable[level].degree)});
    cfg.print();

    const std::vector<LabeledConfig> configs = {
        {"No Prefetching", RunConfig::noPrefetching()},
        {"Very Conservative", RunConfig::staticLevelConfig(1)},
        {"Middle-of-the-Road", RunConfig::staticLevelConfig(3)},
        {"Very Aggressive", RunConfig::staticLevelConfig(5)},
    };

    const std::vector<std::string> names = labelsOf(configs);
    const auto results =
        runSweep(args, "fig01_aggressiveness", benches, configs);

    Table t = buildMetricTable(
        "Figure 1: IPC vs. prefetcher aggressiveness (17 benchmarks)",
        benches, names, results, metricIpc, 3, MeanKind::Geometric);
    t.print();

    const double gain =
        meanDelta(results[0], results[3], metricIpc, MeanKind::Geometric);
    std::printf("\nVery Aggressive vs No Prefetching: %s average IPC "
                "(paper: +84%%)\n",
                fmtPercent(gain).c_str());
    return 0;
}
