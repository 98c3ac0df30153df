/**
 * @file
 * Paper Figures 11 and 12: a Very Aggressive prefetcher with a separate
 * prefetch cache (2KB fully-associative up to 1MB 16-way) vs. FDP
 * prefetching into the L2. FDP should beat small prefetch caches,
 * approach the large ones, and consume less bandwidth than either.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "workload/spec_suite.hh"

using namespace fdp;

namespace
{

RunConfig
prefetchCacheConfig(std::size_t bytes, unsigned assoc)
{
    RunConfig c = RunConfig::staticLevelConfig(5);
    c.machine.prefetchCache.enabled = true;
    c.machine.prefetchCache.sizeBytes = bytes;
    c.machine.prefetchCache.assoc = assoc;
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    const SweepArgs args = parseSweepArgs(argc, argv, 6'000'000);
    const auto &benches = memoryIntensiveBenchmarks();

    const std::vector<LabeledConfig> configs = {
        {"VA (base)", RunConfig::staticLevelConfig(5)},
        {"2KB f.a.", prefetchCacheConfig(2 * 1024, 0)},
        {"8KB", prefetchCacheConfig(8 * 1024, 16)},
        {"32KB", prefetchCacheConfig(32 * 1024, 16)},
        {"64KB", prefetchCacheConfig(64 * 1024, 16)},
        {"1MB", prefetchCacheConfig(1024 * 1024, 16)},
        {"FDP", RunConfig::fullFdp()},
    };

    const std::vector<std::string> names = labelsOf(configs);
    const auto results =
        runSweep(args, "fig11_12_prefetch_cache", benches, configs);

    buildMetricTable("Figure 11: prefetch cache vs FDP (IPC)", benches,
                     names, results, metricIpc, 3, MeanKind::Geometric)
        .print();
    buildMetricTable("Figure 12: prefetch cache vs FDP (BPKI)", benches,
                     names, results, metricBpki, 2, MeanKind::Arithmetic)
        .print();

    std::printf(
        "\nFDP vs VA + 32KB prefetch cache: %s IPC (paper: +5.3%%), "
        "%s bandwidth (paper: -16%%)\n",
        fmtPercent(meanDelta(results[3], results[6], metricIpc,
                             MeanKind::Geometric))
            .c_str(),
        fmtPercent(meanDelta(results[3], results[6], metricBpki,
                             MeanKind::Arithmetic))
            .c_str());
    std::printf(
        "FDP vs VA + 64KB prefetch cache: %s IPC (paper: within 2%%), "
        "%s bandwidth (paper: -9%%)\n",
        fmtPercent(meanDelta(results[4], results[6], metricIpc,
                             MeanKind::Geometric))
            .c_str(),
        fmtPercent(meanDelta(results[4], results[6], metricBpki,
                             MeanKind::Arithmetic))
            .c_str());
    return 0;
}
