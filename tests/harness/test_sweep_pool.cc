/**
 * @file
 * Tests for the parallel sweep scheduler: the pool itself (execution,
 * exception propagation, teardown under early exit), the determinism
 * contract across thread counts, deterministic row ordering, and the
 * --jobs / FDP_JOBS knobs.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "harness/sweep_pool.hh"
#include "sim/logging.hh"
#include "support/same_results.hh"

namespace fdp
{
namespace
{

TEST(SweepPool, ExecutesEverySubmittedJob)
{
    std::atomic<int> ran{0};
    SweepPool pool(4);
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(SweepPool, ZeroThreadRequestClampsToOne)
{
    SweepPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(SweepPool, WaitRethrowsTheFirstJobException)
{
    SweepPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::runtime_error("job failed"); });
    for (int i = 0; i < 8; ++i)
        pool.submit([&ran] { ++ran; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is reported once, then the pool is usable again.
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 9);
}

TEST(SweepPool, TeardownUnderEarlyExitDropsPendingJobs)
{
    // A single worker is held busy while jobs pile up behind it; the
    // destructor must drop the not-yet-started jobs and join promptly
    // instead of draining the queue (or hanging).
    std::atomic<bool> started{false};
    std::atomic<int> ran{0};
    const auto start = std::chrono::steady_clock::now();
    {
        SweepPool pool(1);
        pool.submit([&started, &ran] {
            started = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            ++ran;
        });
        for (int i = 0; i < 10; ++i)
            pool.submit([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                ++ran;
            });
        // Only destroy once the worker is inside the first job, so the
        // ten queued jobs are provably pending at teardown.
        while (!started)
            std::this_thread::yield();
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    EXPECT_GE(ran.load(), 1);
    EXPECT_LT(ran.load(), 11) << "destructor drained the whole queue";
    EXPECT_LT(wall.count(), 1.0) << "teardown waited on pending jobs";
}

TEST(SweepPool, FatalInsideAJobThrowsInsteadOfExiting)
{
    // fatal() on a worker thread must not std::exit(1) while sibling
    // workers run; the pool's FatalThrowsGuard defers it as a
    // FatalError that wait() rethrows on the calling thread.
    SweepPool pool(2);
    pool.submit([] { fatal("bad cell: %d", 7); });
    try {
        pool.wait();
        FAIL() << "wait() did not rethrow the worker fatal";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad cell: 7");
    }
}

RunConfig
smallConfig(const RunConfig &base)
{
    RunConfig c = base;
    c.numInsts = 120'000;
    c.fdp.intervalEvictions = 1024;
    return c;
}

std::vector<LabeledConfig>
smallSweepConfigs()
{
    return {
        {"No Prefetching", smallConfig(RunConfig::noPrefetching())},
        {"Very Aggressive", smallConfig(RunConfig::staticLevelConfig(5))},
        {"FDP", smallConfig(RunConfig::fullFdp())},
    };
}

const std::vector<std::string> kSweepBenches = {"swim", "art", "gap"};

TEST(SweepDeterminism, ThreadCountNeverChangesResults)
{
    // The acceptance bar of the scheduler: --jobs 1 (the sequential
    // path, no threads) and --jobs 8, run twice, are bit-identical.
    const auto seq = runSweep(kSweepBenches, smallSweepConfigs(), 1);
    const auto par1 = runSweep(kSweepBenches, smallSweepConfigs(), 8);
    const auto par2 = runSweep(kSweepBenches, smallSweepConfigs(), 8);
    expectBitIdentical(seq, par1);
    expectBitIdentical(seq, par2);
}

TEST(SweepOrdering, ResultsLandInArgumentOrder)
{
    const auto configs = smallSweepConfigs();
    const auto results = runSweep(kSweepBenches, configs, 4);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        ASSERT_EQ(results[c].size(), kSweepBenches.size());
        for (std::size_t b = 0; b < kSweepBenches.size(); ++b) {
            EXPECT_EQ(results[c][b].benchmark, kSweepBenches[b]);
            EXPECT_EQ(results[c][b].config, configs[c].first);
        }
    }
}

TEST(SweepOrdering, RunSuiteParallelMatchesRunSuite)
{
    // --jobs 1 runs every cell inline on this thread; 4 uses the pool.
    const RunConfig c = smallConfig(RunConfig::staticLevelConfig(3));
    expectBitIdentical(runSuiteParallel(kSweepBenches, c, "mid", 1),
                       runSuiteParallel(kSweepBenches, c, "mid", 4));
}

TEST(SweepDeterminism, ConfigColumnsShareOneTracePerBenchmark)
{
    // The seed is a function of the benchmark alone, so every config
    // column of a sweep executes the identical trace; with the same
    // RunConfig under different labels the whole rows must match.
    const RunConfig c = smallConfig(RunConfig::staticLevelConfig(5));
    const auto res =
        runSweep(kSweepBenches, {{"label-a", c}, {"label-b", c}}, 4);
    ASSERT_EQ(res.size(), 2u);
    expectBitIdentical(res[0], res[1], "config");
}

TEST(SweepDeath, UnknownBenchmarkIsACleanMainThreadFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Names are validated before any job is submitted, so even a
    // parallel sweep dies with the normal single-line diagnostic
    // instead of exiting from inside a worker.
    EXPECT_EXIT(runSweep({"nosuch"}, smallSweepConfigs(), 4),
                testing::ExitedWithCode(1), "unknown benchmark 'nosuch'");
}

TEST(SweepReporting, SequentialFallbackReportsOneJob)
{
    // A single-cell sweep runs sequentially whatever --jobs says; the
    // throughput line must report the worker count that actually ran.
    const RunConfig c = smallConfig(RunConfig::staticLevelConfig(3));
    testing::internal::CaptureStderr();
    runSweep({"gap"}, {{"mid", c}}, 8);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("runs=1 jobs=1 "), std::string::npos) << err;
}

TEST(SweepJobs, CommandLineOverridesEverything)
{
    const char *argv[] = {"bench", "--quick", "--jobs", "5"};
    EXPECT_EQ(parseSweepArgs(4, const_cast<char **>(argv), 999).jobs, 5u);
}

TEST(SweepJobs, FdpJobsEnvIsTheFallback)
{
    ASSERT_EQ(setenv("FDP_JOBS", "3", 1), 0);
    EXPECT_EQ(defaultSweepJobs(), 3u);
    const char *argv[] = {"bench", "--quick"};
    EXPECT_EQ(parseSweepArgs(2, const_cast<char **>(argv), 999).jobs, 3u);
    ASSERT_EQ(unsetenv("FDP_JOBS"), 0);
    EXPECT_GE(defaultSweepJobs(), 1u);
}

TEST(SweepJobsDeath, TrailingJobsFlagIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--jobs"};
    EXPECT_EXIT(parseSweepArgs(2, const_cast<char **>(argv), 999).jobs,
                testing::ExitedWithCode(1), "--jobs requires a value");
}

TEST(SweepJobsDeath, NonNumericJobsIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--jobs", "many"};
    EXPECT_EXIT(parseSweepArgs(3, const_cast<char **>(argv), 999).jobs,
                testing::ExitedWithCode(1), "not a positive integer");
}

TEST(SweepJobsDeath, ZeroJobsIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--jobs", "0"};
    EXPECT_EXIT(parseSweepArgs(3, const_cast<char **>(argv), 999).jobs,
                testing::ExitedWithCode(1), "at least 1");
}

TEST(SweepJobsDeath, AbsurdJobsIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--jobs", "1000000"};
    EXPECT_EXIT(parseSweepArgs(3, const_cast<char **>(argv), 999).jobs,
                testing::ExitedWithCode(1), "implausibly large");
}

TEST(SweepJobsDeath, GarbageFdpJobsEnvIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_EQ(setenv("FDP_JOBS", "fast", 1), 0);
    EXPECT_EXIT(defaultSweepJobs(), testing::ExitedWithCode(1),
                "FDP_JOBS");
    ASSERT_EQ(unsetenv("FDP_JOBS"), 0);
}

} // namespace
} // namespace fdp
