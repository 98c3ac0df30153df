/**
 * @file
 * Paper Figure 14: IPC and BPKI impact of FDP on the remaining 9 SPEC
 * CPU2000 benchmarks (the quiet, low-miss group). FDP should match the
 * best conventional configuration with no losses, and help gcc by
 * curbing pollution.
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
    const SweepArgs args = parseSweepArgs(argc, argv, 6'000'000);
    const auto &benches = remainingBenchmarks();

    const std::vector<LabeledConfig> configs = {
        {"No Prefetching", RunConfig::noPrefetching()},
        {"Very Conservative", RunConfig::staticLevelConfig(1)},
        {"Middle-of-the-Road", RunConfig::staticLevelConfig(3)},
        {"Very Aggressive", RunConfig::staticLevelConfig(5)},
        {"FDP", RunConfig::fullFdp()},
    };
    const std::vector<std::string> names = labelsOf(configs);
    const auto results =
        runSweep(args, "fig14_other_benchmarks", benches, configs);

    buildMetricTable("Figure 14 (top): remaining 9 benchmarks (IPC)",
                     benches, names, results, metricIpc, 3,
                     MeanKind::Geometric)
        .print();
    buildMetricTable("Figure 14 (bottom): remaining 9 benchmarks (BPKI)",
                     benches, names, results, metricBpki, 2,
                     MeanKind::Arithmetic)
        .print();

    // Best static configuration for this group.
    std::size_t best = 1;
    for (std::size_t i = 2; i <= 3; ++i)
        if (meanOf(results[i], metricIpc, MeanKind::Geometric) >
            meanOf(results[best], metricIpc, MeanKind::Geometric))
            best = i;
    std::printf(
        "\nFDP vs best static (%s): %s IPC (paper: +0.4%%), %s bandwidth "
        "(paper: -0.2%%)\n",
        names[best].c_str(),
        fmtPercent(meanDelta(results[best], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str(),
        fmtPercent(meanDelta(results[best], results[4], metricBpki,
                             MeanKind::Arithmetic))
            .c_str());

    int losers = 0;
    for (std::size_t b = 0; b < benches.size(); ++b)
        if (results[4][b].ipc < results[0][b].ipc * 0.99)
            ++losers;
    std::printf("Benchmarks losing vs no prefetching under FDP: %d "
                "(paper: none)\n",
                losers);
    return 0;
}
