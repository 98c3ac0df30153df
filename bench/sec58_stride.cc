/**
 * @file
 * Paper Section 5.8: FDP applied to a PC-based stride prefetcher.
 * The paper reports a 4% performance gain and a 24% bandwidth reduction
 * over the best-performing conventional stride configuration.
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
    const auto &benches = memoryIntensiveBenchmarks();

    std::vector<LabeledConfig> configs = {
        {"No Prefetching", RunConfig::noPrefetching()},
        {"Very Conservative", RunConfig::staticLevelConfig(1)},
        {"Middle-of-the-Road", RunConfig::staticLevelConfig(3)},
        {"Very Aggressive", RunConfig::staticLevelConfig(5)},
        {"FDP", RunConfig::fullFdp()},
    };
    for (auto &[label, c] : configs)
        if (c.prefetcher != PrefetcherKind::None)
            c.prefetcher = PrefetcherKind::Stride;
    const std::vector<std::string> names = labelsOf(configs);
    const auto results = runSweep(args, "sec58_stride", benches, configs);

    buildMetricTable("Section 5.8: PC-based stride prefetcher (IPC)",
                     benches, names, results, metricIpc, 3,
                     MeanKind::Geometric)
        .print();
    buildMetricTable("Section 5.8: PC-based stride prefetcher (BPKI)",
                     benches, names, results, metricBpki, 2,
                     MeanKind::Arithmetic)
        .print();

    // Best static configuration by mean IPC.
    std::size_t best = 1;
    for (std::size_t i = 2; i <= 3; ++i)
        if (meanOf(results[i], metricIpc, MeanKind::Geometric) >
            meanOf(results[best], metricIpc, MeanKind::Geometric))
            best = i;
    std::printf(
        "\nFDP-stride vs best static (%s): %s IPC (paper: +4%%), "
        "%s bandwidth (paper: -24%%)\n",
        names[best].c_str(),
        fmtPercent(meanDelta(results[best], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str(),
        fmtPercent(meanDelta(results[best], results[4], metricBpki,
                             MeanKind::Arithmetic))
            .c_str());
    return 0;
}
