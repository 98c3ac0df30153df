/**
 * @file
 * End-to-end tests of the experiment harness: full machine runs on the
 * synthetic suite with every prefetcher and policy variant.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "support/same_results.hh"

namespace fdp
{
namespace
{

RunConfig
quick(RunConfig c, std::uint64_t insts = 400'000)
{
    c.numInsts = insts;
    return c;
}

TEST(EndToEnd, NoPrefetchingRunCompletes)
{
    const auto r = runBenchmark("swim", quick(RunConfig::noPrefetching()),
                                "none");
    EXPECT_EQ(r.insts, 400'000u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_EQ(r.prefSent, 0u);
    EXPECT_GT(r.busAccesses, 0u);
}

TEST(EndToEnd, StaticConfigsRun)
{
    for (unsigned level : {1u, 3u, 5u}) {
        const auto r = runBenchmark(
            "mgrid", quick(RunConfig::staticLevelConfig(level)), "static");
        EXPECT_GT(r.ipc, 0.0) << "level " << level;
        EXPECT_GT(r.prefSent, 0u) << "level " << level;
    }
}

TEST(EndToEnd, FdpRunProducesDistributions)
{
    // art fills the L2 quickly (15K-block reuse set), so sampling
    // intervals complete even in a shortened run.
    RunConfig c = quick(RunConfig::fullFdp(), 800'000);
    c.fdp.intervalEvictions = 1024;
    const auto r = runBenchmark("art", c, "fdp");
    double level_total = 0.0;
    for (const double f : r.levelDist)
        level_total += f;
    EXPECT_NEAR(level_total, 1.0, 1e-9);  // intervals happened
    double ins_total = 0.0;
    for (const double f : r.insertDist)
        ins_total += f;
    EXPECT_NEAR(ins_total, 1.0, 1e-9);  // prefetch fills happened
}

TEST(EndToEnd, GhbPrefetcherRuns)
{
    RunConfig c = quick(RunConfig::staticLevelConfig(3));
    c.prefetcher = PrefetcherKind::GhbCdc;
    const auto r = runBenchmark("swim", c, "ghb");
    EXPECT_GT(r.prefSent, 0u);
    EXPECT_GT(r.accuracy, 0.3);
}

TEST(EndToEnd, StridePrefetcherRuns)
{
    RunConfig c = quick(RunConfig::staticLevelConfig(3));
    c.prefetcher = PrefetcherKind::Stride;
    const auto r = runBenchmark("swim", c, "stride");
    EXPECT_GT(r.prefSent, 0u);
}

TEST(EndToEnd, PrefetchCacheModeRuns)
{
    RunConfig c = quick(RunConfig::staticLevelConfig(5));
    c.machine.prefetchCache.enabled = true;
    c.machine.prefetchCache.sizeBytes = 32 * 1024;
    const auto r = runBenchmark("swim", c, "pcache");
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_DOUBLE_EQ(r.pollution, 0.0);
}

TEST(EndToEnd, ResultsAreReproducible)
{
    expectBitIdentical(
        runBenchmark("art", quick(RunConfig::fullFdp()), "fdp"),
        runBenchmark("art", quick(RunConfig::fullFdp()), "fdp"));
}

TEST(EndToEnd, RunSuiteShapesMatch)
{
    const std::vector<std::string> names = {"swim", "art"};
    const auto results = runSuiteParallel(
        names, quick(RunConfig::noPrefetching(), 100'000), "none");
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].benchmark, "swim");
    EXPECT_EQ(results[1].benchmark, "art");
}

TEST(EndToEnd, MetricTableBuilds)
{
    const std::vector<std::string> names = {"swim"};
    const auto results = runSweep(
        names, {{"none", quick(RunConfig::noPrefetching(), 100'000)},
                {"va", quick(RunConfig::staticLevelConfig(5), 100'000)}});
    Table t = buildMetricTable("demo", names, {"none", "va"}, results,
                               metricIpc, 2, MeanKind::Geometric);
    EXPECT_EQ(t.numRows(), 2u);  // one benchmark + gmean
}

TEST(EndToEnd, BpkiConsistentWithBusAccesses)
{
    const auto r = runBenchmark(
        "swim", quick(RunConfig::staticLevelConfig(5), 200'000), "va");
    EXPECT_NEAR(r.bpki,
                static_cast<double>(r.busAccesses) /
                    (static_cast<double>(r.insts) / 1000.0),
                1e-9);
}

TEST(EndToEnd, InstructionBudgetParsing)
{
    const char *argv1[] = {"bench", "--quick"};
    EXPECT_EQ(parseSweepArgs(2, const_cast<char **>(argv1), 5'000'000).insts,
              1'000'000u);
    const char *argv2[] = {"bench", "--insts", "123456"};
    EXPECT_EQ(parseSweepArgs(3, const_cast<char **>(argv2), 5'000'000).insts,
              123456u);
    const char *argv3[] = {"bench"};
    EXPECT_EQ(parseSweepArgs(1, const_cast<char **>(argv3), 5'000'000).insts,
              5'000'000u);
}

} // namespace
} // namespace fdp
