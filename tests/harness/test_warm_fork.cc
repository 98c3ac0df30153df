/**
 * @file
 * Warm-fork sweep golden tests: the determinism contract of DESIGN.md
 * Section 16. runSweep's fork-from-snapshot path must be bit-identical
 * to warming every cell in place, at any job count; warm images are
 * shared across policy configurations and served from a result store's
 * snaps/ directory, byte-identical whichever worker captured them; a
 * torn or corrupt stored image is recaptured; mismatched forks and
 * failed captures die cleanly.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/result_store.hh"
#include "harness/sweep_pool.hh"
#include "harness/warm_fork.hh"
#include "sim/snapshot.hh"
#include "support/same_results.hh"
#include "support/snap_patch.hh"

namespace fdp
{
namespace
{

/** Sorted names of the regular files in @p dir (none if it is not a
 *  directory). */
std::vector<std::string>
filesIn(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = opendir(dir.c_str())) {
        while (const dirent *e = readdir(d)) {
            struct stat st = {};
            if (::stat((dir + "/" + e->d_name).c_str(), &st) == 0 &&
                S_ISREG(st.st_mode))
                names.push_back(e->d_name);
        }
        closedir(d);
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << is.rdbuf();
    return bytes.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

/** A scratch store directory under the gtest temp root, emptied of the
 *  entries and warm images an earlier run of the suite left. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "warm_fork_" + name;
    const ResultStore sweeper(dir);  // creates it
    for (const std::string &f : sweeper.entryFiles())
        sweeper.removeEntry(f);
    for (const std::string &f : filesIn(dir + "/snaps"))
        std::remove((dir + "/snaps/" + f).c_str());
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

/** A forked sweep of @p configs over swim and art at 1 and 4 jobs
 *  equals warming every cell in place, with no forking involved. */
void
expectSweepMatchesColdWarmup(const std::vector<LabeledConfig> &configs)
{
    const std::vector<std::string> benches = {"swim", "art"};
    std::vector<std::vector<RunResult>> cold(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (const std::string &b : benches)
            cold[c].push_back(
                runBenchmark(b, configs[c].second, configs[c].first));

    expectBitIdentical(runSweep(benches, configs, 1), cold);
    expectBitIdentical(runSweep(benches, configs, 4), cold);
}

TEST(WarmForkGolden, SweepMatchesColdWarmupAtAnyJobCount)
{
    expectSweepMatchesColdWarmup(goldenConfigs());
}

TEST(WarmForkGolden, ControllerSweepMatchesColdWarmup)
{
    std::vector<LabeledConfig> configs = goldenConfigs();
    for (auto &[label, config] : configs) {
        config.machine.dramCtrl.kind = DramKind::Controller;
        config.machine.dramCtrl.channels = 4;
        config.machine.dramCtrl.rowPolicy = RowPolicy::Adaptive;
    }
    expectSweepMatchesColdWarmup(configs);
}

TEST(WarmForkGolden, PrefetchCacheSweepMatchesColdWarmup)
{
    std::vector<LabeledConfig> configs = goldenConfigs();
    for (auto &[label, config] : configs) {
        config.machine.prefetchCache.enabled = true;
        config.machine.prefetchCache.sizeBytes = 64 * 1024;
    }
    expectSweepMatchesColdWarmup(configs);
}

TEST(WarmForkGolden, StoreServesWarmSnapshotsAcrossSweeps)
{
    const std::vector<std::string> benches = {"swim"};
    const std::vector<LabeledConfig> configs = goldenConfigs();
    const std::string dir = freshDir("snap_store");

    const auto first = runSweep(benches, configs, 1, {dir, false});

    // One policy-independent warm image per (benchmark, geometry,
    // warm-up) group must now sit in the store.
    const std::string snapPath = warmSnapshotPath(
        dir, warmSnapshotKey("swim", configs[2].second));
    struct stat st = {};
    EXPECT_EQ(::stat(snapPath.c_str(), &st), 0) << snapPath;

    // A second sweep reuses the stored image and stays bit-identical.
    expectBitIdentical(runSweep(benches, configs, 2, {dir, false}), first);
}

TEST(WarmForkGolden, StoreImagesIdenticalAtAnyJobCount)
{
    const std::vector<std::string> benches = {"swim", "mgrid", "art",
                                              "mcf"};
    const std::vector<LabeledConfig> configs = goldenConfigs();
    std::vector<std::vector<RunResult>> cold(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (const std::string &b : benches)
            cold[c].push_back(
                runBenchmark(b, configs[c].second, configs[c].first));

    const std::string one = freshDir("jobs1");
    const std::string four = freshDir("jobs4");
    expectBitIdentical(runSweep(benches, configs, 1, {one, false}), cold);
    expectBitIdentical(runSweep(benches, configs, 4, {four, false}), cold);

    // Which worker captured an image or inserted an entry leaves no
    // trace in the store: same file names, same bytes.
    EXPECT_EQ(filesIn(one + "/snaps").size(), benches.size());
    for (const std::string sub : {"", "/snaps"}) {
        const std::vector<std::string> names = filesIn(one + sub);
        EXPECT_EQ(names, filesIn(four + sub)) << sub;
        for (const std::string &name : names)
            EXPECT_EQ(fileBytes(one + sub + "/" + name),
                      fileBytes(four + sub + "/" + name))
                << sub << "/" << name;
    }
    EXPECT_EQ(filesIn(one).size(), benches.size() * configs.size());
}

TEST(WarmForkGolden, CorruptStoreImageIsRecaptured)
{
    const std::vector<std::string> benches = {"swim", "mgrid"};
    const std::vector<LabeledConfig> configs = goldenConfigs();
    const std::string dir = freshDir("heal");
    const SweepStoreConfig store = {dir, false};
    const auto first = runSweep(benches, configs, 2, store);

    const std::string torn = warmSnapshotPath(
        dir, warmSnapshotKey("swim", configs[0].second));
    const std::string flipped = warmSnapshotPath(
        dir, warmSnapshotKey("mgrid", configs[0].second));
    const std::string tornBytes = fileBytes(torn);
    const std::string flippedBytes = fileBytes(flipped);
    ASSERT_FALSE(tornBytes.empty()) << torn;
    ASSERT_FALSE(flippedBytes.empty()) << flipped;
    // A killed writer's partial image, and one bit flipped under the
    // CRC: both fail a container check.
    writeBytes(torn, tornBytes.substr(0, tornBytes.size() / 2));
    std::string bad = flippedBytes;
    bad[bad.size() / 2] ^= 0x04;
    writeBytes(flipped, bad);

    // The rerun reads both as misses, recaptures and overwrites them,
    // instead of dying, and its results do not move.
    expectBitIdentical(runSweep(benches, configs, 2, store), first);
    EXPECT_EQ(fileBytes(torn), tornBytes);
    EXPECT_EQ(fileBytes(flipped), flippedBytes);
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

TEST_F(WarmForkDeath, CaptureFailureOnAWorkerIsACleanFatal)
{
    // A regular file where the snaps/ subdirectory belongs: every image
    // write fails inside a capture job on a pool worker, and the fatal
    // must reach the main thread as a clean exit, not a terminate or a
    // hang.
    const std::string dir = freshDir("snaps_blocked");
    std::remove((dir + "/snaps").c_str());
    writeBytes(dir + "/snaps", "not a directory\n");
    EXPECT_EXIT(runSweep({"swim", "mgrid", "art", "mcf"}, goldenConfigs(),
                         4, {dir, false}),
                testing::ExitedWithCode(1),
                "fatal: snapshot .*/snaps/.*: cannot write");
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

/**
 * @p benchmark's warm image with the workload-section field @p fromEnd
 * bytes before the section's end (@p width bytes wide) set to @p value,
 * written through writeSnapshotFile so its CRC is valid, and read back
 * as a store or --load-snap image is. The section ends with the
 * generator's cursors: stream cursor u32 (56 bytes from the end), chase
 * cursor and address u64, hot cursor u64 (36), delta page u64, delta
 * offset u32 (20), delta phase u32 (16), delta word u32 (12), op count
 * u64.
 */
SnapshotImage
imageWithWorkloadField(const std::string &benchmark, std::size_t fromEnd,
                       std::size_t width, std::uint64_t value)
{
    SnapshotImage image =
        captureWarmSnapshot(benchmark, warmed(RunConfig::fullFdp()));
    SnapReader r(image.body);
    std::size_t end = 0;
    for (SnapReader::Span s; s.name != "workload";) {
        s = r.skipAnySection();
        end += 1 + s.name.size() + 4 + s.payloadBytes;
    }
    patchLe(image.body, end - fromEnd, width, value);
    const std::string path = testing::TempDir() + "warm_fork_" +
                             benchmark + "_" + std::to_string(fromEnd) +
                             ".fdpsnap";
    writeSnapshotFile(path, image);
    return readSnapshotFile(path);
}

/** Fork @p image the way a warmed sweep cell does. */
void
forkFrom(const SnapshotImage &image)
{
    runBenchmarkFromSnapshot(image, warmed(RunConfig::fullFdp()), "fdp");
}

TEST_F(WarmForkDeath, StreamCursorPastTheStreamsIsFatal)
{
    EXPECT_EXIT(forkFrom(imageWithWorkloadField("swim", 56, 4, 0x0fffffff)),
                testing::ExitedWithCode(1),
                "snapshot: workload stream cursor 268435455 out of range");
}

TEST_F(WarmForkDeath, HotCursorPastTheSweepIsFatal)
{
    EXPECT_EXIT(forkFrom(imageWithWorkloadField("art", 36, 8, 0x0fffffff)),
                testing::ExitedWithCode(1),
                "snapshot: workload hot cursor 268435455 out of range");
}

TEST_F(WarmForkDeath, DeltaOffsetPastThePageIsFatal)
{
    EXPECT_EXIT(forkFrom(imageWithWorkloadField("deltamix", 20, 4, 64)),
                testing::ExitedWithCode(1),
                "snapshot: workload delta offset 64 out of range");
}

TEST_F(WarmForkDeath, DeltaPhasePastTheCycleIsFatal)
{
    EXPECT_EXIT(
        forkFrom(imageWithWorkloadField("deltamix", 16, 4, 0x0fffffff)),
        testing::ExitedWithCode(1),
        "snapshot: workload delta phase 268435455 out of range");
}

TEST_F(WarmForkDeath, DeltaWordPastTheBlockIsFatal)
{
    EXPECT_EXIT(forkFrom(imageWithWorkloadField("deltamix", 12, 4, 8)),
                testing::ExitedWithCode(1),
                "snapshot: workload delta word 8 out of range");
}

} // namespace
} // namespace fdp
