/**
 * @file
 * Tests for the parallel sweep runner: runJobs itself (every job once,
 * inline execution, lowest-index failure after the join), the
 * determinism contract across thread counts, deterministic row
 * ordering, the throughput line, and the --jobs / FDP_JOBS knobs.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/sweep_pool.hh"
#include "sim/logging.hh"
#include "support/same_results.hh"

namespace fdp
{
namespace
{

TEST(RunJobs, EveryJobRunsExactlyOnce)
{
    // 0 and 1 run inline; 8 threads on 3 jobs is more threads than jobs.
    for (const auto &[threads, count] :
         {std::pair{0u, 50u}, std::pair{1u, 50u}, std::pair{2u, 50u},
          std::pair{8u, 50u}, std::pair{8u, 3u}}) {
        std::vector<std::atomic<int>> runs(count);
        std::vector<std::function<void()>> jobs;
        for (unsigned i = 0; i < count; ++i)
            jobs.push_back([&runs, i] { ++runs[i]; });
        runJobs(jobs, threads);
        for (unsigned i = 0; i < count; ++i)
            EXPECT_EQ(runs[i].load(), 1)
                << "job " << i << " with " << threads << " threads";
    }
}

TEST(RunJobs, OneThreadRunsTheJobsInlineInOrder)
{
    for (const unsigned threads : {0u, 1u}) {
        std::vector<std::thread::id> ranOn;
        std::vector<std::function<void()>> jobs;
        for (int i = 0; i < 4; ++i)
            jobs.push_back(
                [&ranOn] { ranOn.push_back(std::this_thread::get_id()); });
        runJobs(jobs, threads);
        EXPECT_EQ(ranOn, std::vector<std::thread::id>(
                             4, std::this_thread::get_id()));
    }
}

TEST(RunJobs, LowestIndexExceptionSurfacesAfterEveryOtherJob)
{
    // Job 2 fails only once job 5 has failed, and the other jobs are
    // slow, so the failures and the rest overlap on four workers; the
    // caller still sees job 2's exception, after every job has run.
    std::atomic<bool> laterFailed{false};
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 12; ++i)
        jobs.push_back([&ran] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            ++ran;
        });
    jobs[2] = [&laterFailed] {
        while (!laterFailed)
            std::this_thread::yield();
        throw std::runtime_error("job 2");
    };
    jobs[5] = [&laterFailed] {
        laterFailed = true;
        throw std::logic_error("job 5");
    };
    try {
        runJobs(jobs, 4);
        FAIL() << "runJobs did not re-raise a job exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 2");
    }
    EXPECT_EQ(ran.load(), 10);
}

TEST(RunJobs, LowestIndexWorkerFatalExitsTheProcess)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Both jobs call fatal(), job 1 first. Job 0 waits until job 1's
    // fatal() has unwound job 1's stack, which it does only as the
    // FatalError a worker's fatal() must be: exiting on the worker
    // would print job 1's message alone. runJobs then re-raises the
    // lower index's on the calling thread.
    struct SetOnUnwind
    {
        std::atomic<bool> &flag;
        ~SetOnUnwind() { flag = true; }
    };
    const auto twoFatals = [] {
        std::atomic<bool> oneUnwound{false};
        runJobs({[&oneUnwound] {
                     while (!oneUnwound)
                         std::this_thread::yield();
                     fatal("bad cell: %d", 0);
                 },
                 [&oneUnwound] {
                     const SetOnUnwind unwind{oneUnwound};
                     fatal("bad cell: %d", 1);
                 }},
                2);
    };
    EXPECT_EXIT(twoFatals(), testing::ExitedWithCode(1),
                "fatal: bad cell: 0");
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

TEST(SweepOrdering, OneConfigSweepMatchesAcrossJobs)
{
    // --jobs 1 runs every cell inline on this thread; 4 starts workers.
    const RunConfig c = smallConfig(RunConfig::staticLevelConfig(3));
    expectBitIdentical(runSweep(kSweepBenches, {{"mid", c}}, 1),
                       runSweep(kSweepBenches, {{"mid", c}}, 4));
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
    // The whole of stderr is the one line, its times at fixed decimals.
    double wall = -1.0;
    double rate = -1.0;
    ASSERT_EQ(std::sscanf(err.c_str(),
                          "sweep-throughput: runs=1 jobs=1 wall_s=%lf "
                          "runs_per_s=%lf",
                          &wall, &rate),
              2)
        << err;
    char line[128];
    std::snprintf(line, sizeof line,
                  "sweep-throughput: runs=1 jobs=1 wall_s=%.3f "
                  "runs_per_s=%.2f\n",
                  wall, rate);
    EXPECT_EQ(err, line);
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
