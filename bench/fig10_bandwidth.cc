/**
 * @file
 * Paper Figure 10: memory bandwidth impact of FDP, in Memory Bus
 * Accesses Per Kilo Instructions (BPKI). FDP must consume less
 * bandwidth than Very Aggressive while performing better.
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
        {"FDP", RunConfig::fullFdp()},
    };
    const std::vector<std::string> names = labelsOf(configs);
    const auto results = runSweep(args, "fig10_bandwidth", benches, configs);

    buildMetricTable("Figure 10: memory bus accesses per kilo "
                     "instructions (BPKI)",
                     benches, names, results, metricBpki, 2,
                     MeanKind::Arithmetic)
        .print();

    std::printf(
        "\nFDP vs Very Aggressive: %s bandwidth (paper: -18.7%%), "
        "%s IPC (paper: +6.5%%)\n",
        fmtPercent(meanDelta(results[3], results[4], metricBpki,
                             MeanKind::Arithmetic))
            .c_str(),
        fmtPercent(meanDelta(results[3], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str());
    return 0;
}
