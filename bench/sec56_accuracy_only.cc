/**
 * @file
 * Paper Section 5.6: throttling on prefetch accuracy alone vs. the
 * comprehensive mechanism (accuracy + lateness + pollution). The full
 * mechanism should win on both performance and bandwidth.
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
        {"Accuracy-only", RunConfig::accuracyOnlyFdp()},
        {"Full FDP", RunConfig::fullFdp()},
    };
    const std::vector<std::string> names = labelsOf(configs);
    const auto results =
        runSweep(args, "sec56_accuracy_only", benches, configs);

    buildMetricTable("Section 5.6: accuracy-only throttling vs full FDP "
                     "(IPC)",
                     benches, names, results, metricIpc, 3,
                     MeanKind::Geometric)
        .print();
    buildMetricTable("Section 5.6: accuracy-only throttling vs full FDP "
                     "(BPKI)",
                     benches, names, results, metricBpki, 2,
                     MeanKind::Arithmetic)
        .print();

    std::printf(
        "\nFull FDP vs accuracy-only: %s IPC (paper: +3.4%%), "
        "%s bandwidth (paper: -2.5%%)\n",
        fmtPercent(meanDelta(results[0], results[1], metricIpc,
                             MeanKind::Geometric))
            .c_str(),
        fmtPercent(meanDelta(results[0], results[1], metricBpki,
                             MeanKind::Arithmetic))
            .c_str());
    return 0;
}
