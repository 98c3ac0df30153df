/**
 * @file
 * Golden determinism: for every calibrated benchmark, a live run, a
 * recording run, and a replay of the recorded trace must agree on every
 * RunResult field bit-for-bit (so every rendering of them matches too).
 * The parallel case runs the live side as a --jobs 4 sweep to prove
 * replay equivalence is independent of scheduling.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep_pool.hh"
#include "support/same_results.hh"
#include "trace_test_util.hh"
#include "workload/spec_suite.hh"

namespace fdp
{
namespace
{

constexpr std::uint64_t kInsts = 20'000;

RunConfig
goldenConfig()
{
    RunConfig config = RunConfig::fullFdp();
    config.numInsts = kInsts;
    return config;
}

TEST(ReplayGolden, EveryBenchmarkReplaysBitIdentically)
{
    const RunConfig config = goldenConfig();
    for (const std::string &bench : allBenchmarks()) {
        const std::string path = tempTracePath(bench);
        const RunResult live = runBenchmark(bench, config, "fdp");
        const RunResult recorded =
            recordBenchmark(bench, config, "fdp", path);
        const RunResult replayed = replayTrace(path, config, "fdp");
        expectBitIdentical(live, recorded);
        expectBitIdentical(live, replayed);
    }
}

TEST(ReplayGolden, ReplayIsConfigIndependent)
{
    // One trace serves any configuration: the recorded stream is the
    // workload, not the machine. Record under full FDP, replay under a
    // static policy, and check against that policy's live run.
    RunConfig recordCfg = goldenConfig();
    RunConfig staticCfg = RunConfig::staticLevelConfig(2);
    staticCfg.numInsts = kInsts;

    const std::string path = tempTracePath("xcfg");
    recordBenchmark("mcf", recordCfg, "fdp", path);
    const RunResult live = runBenchmark("mcf", staticCfg, "static2");
    const RunResult replayed = replayTrace(path, staticCfg, "static2");
    expectBitIdentical(live, replayed);
}

TEST(ReplayGolden, SweepJobs4MatchesSequentialReplays)
{
    const std::vector<std::string> benches = {"swim", "mcf", "art",
                                              "galgel", "ammp"};
    const RunConfig config = goldenConfig();

    // Live sweep on four workers (--jobs 4, the CI smoke shape).
    const std::vector<RunResult> parallelLive =
        runSweep(benches, {{"fdp", config}}, 4).front();
    ASSERT_EQ(parallelLive.size(), benches.size());

    for (std::size_t i = 0; i < benches.size(); ++i) {
        const std::string path = tempTracePath(benches[i]);
        recordBenchmark(benches[i], config, "fdp", path);
        const RunResult replayed = replayTrace(path, config, "fdp");
        expectBitIdentical(parallelLive[i], replayed);
    }
}

} // namespace
} // namespace fdp
