/**
 * @file
 * Warm-fork sweep golden tests: the determinism contract of DESIGN.md
 * Section 16. runSweep's fork-from-snapshot path must be bit-identical
 * to warming every cell in place, at any job count; warm images are
 * shared across policy configurations and served from a result store's
 * snaps/ directory; mismatched forks die cleanly.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_store.hh"
#include "harness/sweep_pool.hh"
#include "harness/warm_fork.hh"
#include "support/same_results.hh"

namespace fdp
{
namespace
{

/** A scratch store directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "warm_fork_" + name;
    const ResultStore sweeper(dir);  // creates it
    for (const std::string &f : sweeper.entryFiles())
        sweeper.removeEntry(f);
    return dir;
}

RunConfig
warmed(RunConfig c)
{
    c.numInsts = 50'000;
    c.warmupInsts = 100'000;
    return c;
}

/** The fig09-style policy grid every golden test sweeps. */
std::vector<LabeledConfig>
goldenConfigs()
{
    return {{"no-pf", warmed(RunConfig::noPrefetching())},
            {"static-5", warmed(RunConfig::staticLevelConfig(5))},
            {"fdp", warmed(RunConfig::fullFdp())}};
}

TEST(WarmForkGolden, SweepMatchesColdWarmupAtAnyJobCount)
{
    const std::vector<std::string> benches = {"swim", "art"};
    const std::vector<LabeledConfig> configs = goldenConfigs();

    // Cold reference: every cell warms in place via runWorkload's
    // warm-up path, no forking involved.
    std::vector<std::vector<RunResult>> cold(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (const std::string &b : benches)
            cold[c].push_back(
                runBenchmark(b, configs[c].second, configs[c].first));

    setSweepStore({});
    expectBitIdentical(runSweep(benches, configs, 1), cold);
    expectBitIdentical(runSweep(benches, configs, 4), cold);
}

TEST(WarmForkGolden, StoreServesWarmSnapshotsAcrossSweeps)
{
    const std::vector<std::string> benches = {"swim"};
    const std::vector<LabeledConfig> configs = goldenConfigs();
    const std::string dir = freshDir("snap_store");

    setSweepStore({dir, false});
    const auto first = runSweep(benches, configs, 1);

    // One policy-independent warm image per (benchmark, geometry,
    // warm-up) group must now sit in the store.
    const std::string snapPath = warmSnapshotPath(
        dir, warmSnapshotKey("swim", configs[2].second));
    struct stat st = {};
    EXPECT_EQ(::stat(snapPath.c_str(), &st), 0) << snapPath;

    // A second sweep reuses the stored image and stays bit-identical.
    setSweepStore({dir, false});
    expectBitIdentical(runSweep(benches, configs, 2), first);
    setSweepStore({});
}

TEST(WarmForkKey, SharedAcrossPoliciesSplitByGeometryAndWarmup)
{
    const RunConfig fdp = warmed(RunConfig::fullFdp());
    const RunConfig stat5 = warmed(RunConfig::staticLevelConfig(5));
    // The sharing property: policy knobs never enter the key.
    EXPECT_EQ(warmSnapshotKey("swim", fdp), warmSnapshotKey("swim", stat5));

    RunConfig longer = fdp;
    longer.warmupInsts *= 2;
    EXPECT_NE(warmSnapshotKey("swim", fdp), warmSnapshotKey("swim", longer));

    RunConfig bigger = fdp;
    bigger.machine.l2.sizeBytes *= 2;
    EXPECT_NE(warmSnapshotKey("swim", fdp), warmSnapshotKey("swim", bigger));

    EXPECT_NE(warmSnapshotKey("swim", fdp), warmSnapshotKey("art", fdp));
}

TEST(ResultStoreFingerprint, WarmupLengthChangesTheKey)
{
    // Satellite fix: a warmed cell must never be served a cold cell's
    // cached result (or vice versa).
    const RunConfig cold = [] {
        RunConfig c = RunConfig::fullFdp();
        c.numInsts = 50'000;
        return c;
    }();
    const RunConfig warm = warmed(RunConfig::fullFdp());
    EXPECT_NE(makeStoreKey("swim", cold, "fdp").canonical,
              makeStoreKey("swim", warm, "fdp").canonical);
}

class WarmForkDeath : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

TEST_F(WarmForkDeath, CaptureWithoutWarmupIsFatal)
{
    RunConfig c = RunConfig::fullFdp();
    c.numInsts = 50'000;
    EXPECT_EXIT(captureWarmSnapshot("swim", c),
                testing::ExitedWithCode(1), "");
}

TEST_F(WarmForkDeath, ForkWithMismatchedGeometryIsFatal)
{
    const RunConfig base = warmed(RunConfig::fullFdp());
    const SnapshotImage image = captureWarmSnapshot("swim", base);

    RunConfig other = base;
    other.machine.l2.sizeBytes *= 2;
    EXPECT_EXIT(runBenchmarkFromSnapshot(image, other, "fdp"),
                testing::ExitedWithCode(1), "");
}

TEST_F(WarmForkDeath, ForkWithMismatchedWarmupIsFatal)
{
    const RunConfig base = warmed(RunConfig::fullFdp());
    const SnapshotImage image = captureWarmSnapshot("swim", base);

    RunConfig other = base;
    other.warmupInsts *= 2;
    EXPECT_EXIT(runBenchmarkFromSnapshot(image, other, "fdp"),
                testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace fdp
