/**
 * @file
 * Paper Figure 13: FDP applied to the GHB-based C/DC delta-correlation
 * prefetcher - static aggressiveness configurations vs. the feedback
 * directed GHB prefetcher, in IPC and BPKI.
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
            c.prefetcher = PrefetcherKind::GhbCdc;
    const std::vector<std::string> names = labelsOf(configs);
    const auto results = runSweep(args, "fig13_ghb", benches, configs);

    buildMetricTable("Figure 13 (top): GHB C/DC prefetcher (IPC)", benches,
                     names, results, metricIpc, 3, MeanKind::Geometric)
        .print();
    buildMetricTable("Figure 13 (bottom): GHB C/DC prefetcher (BPKI)",
                     benches, names, results, metricBpki, 2,
                     MeanKind::Arithmetic)
        .print();

    std::printf(
        "\nFDP-GHB vs Very Aggressive GHB: %s IPC, %s bandwidth "
        "(paper: similar IPC, -20.8%% bandwidth)\n",
        fmtPercent(meanDelta(results[3], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str(),
        fmtPercent(meanDelta(results[3], results[4], metricBpki,
                             MeanKind::Arithmetic))
            .c_str());
    std::printf(
        "FDP-GHB vs Middle-of-the-Road GHB (bandwidth-matched): %s IPC "
        "(paper: +9.9%%)\n",
        fmtPercent(meanDelta(results[2], results[4], metricIpc,
                             MeanKind::Geometric))
            .c_str());
    return 0;
}
