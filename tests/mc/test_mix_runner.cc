/**
 * @file
 * Mix sweep tests: parallel and sequential execution produce
 * bit-identical results (DESIGN.md §10), speedups come out finalized
 * against the right alone baselines, the report tables / JSON carry
 * every metric, and a too-short trace is a main-thread fatal.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mc/mix_runner.hh"
#include "support/same_results.hh"

namespace fdp
{
namespace
{

McLabeledConfig
labeled(const std::string &label, RunConfig base, unsigned cores,
        std::uint64_t insts)
{
    base.numInsts = insts;
    McLabeledConfig c;
    c.label = label;
    c.config.base = base;
    c.config.numCores = cores;
    return c;
}

MixSpec
benchMix(const char *name, std::vector<std::string> benches)
{
    MixSpec spec;
    spec.name = name;
    for (auto &b : benches)
        spec.entries.push_back(MixEntry{std::move(b), ""});
    return spec;
}

std::vector<McLabeledConfig>
twoConfigs(unsigned cores, std::uint64_t insts)
{
    return {labeled("static5", RunConfig::staticLevelConfig(5), cores,
                    insts),
            labeled("fdp", RunConfig::fullFdp(), cores, insts)};
}

TEST(MixRunner, JobCountNeverChangesTheResults)
{
    const MixSpec spec = benchMix("det", {"swim", "art"});
    const auto configs = twoConfigs(2, 25'000);
    const auto seq = runMixSweep(spec, configs, 1);
    const auto par = runMixSweep(spec, configs, 4);
    expectBitIdentical(seq, par);
}

TEST(MixRunner, SpeedupsComeOutFinalized)
{
    const MixSpec spec = benchMix("fin", {"swim", "mgrid"});
    const auto results =
        runMixSweep(spec, twoConfigs(2, 25'000), 2);
    ASSERT_EQ(results.size(), 2u);
    for (const McRunResult &r : results) {
        for (const McCoreResult &c : r.cores) {
            EXPECT_GT(c.aloneIpc, 0.0);
            EXPECT_GT(c.speedup, 0.0);
            // Sharing the hierarchy cannot beat running alone.
            EXPECT_LE(c.speedup, 1.0);
        }
        EXPECT_GT(r.weightedSpeedup, 0.0);
        EXPECT_LE(r.weightedSpeedup, 2.0);
        EXPECT_GT(r.harmonicSpeedup, 0.0);
        EXPECT_GT(r.fairness, 0.0);
        EXPECT_LE(r.fairness, 1.0);
    }
}

TEST(MixRunner, DuplicateProgramsShareOneBaselinePerSeed)
{
    // Two swim copies run perturbed seeds, so they are distinct
    // baseline cells; their alone IPCs differ from each other but both
    // come out positive and finalized.
    const MixSpec spec = benchMix("dup", {"swim", "swim"});
    const auto results = runMixSweep(
        spec, {labeled("fdp", RunConfig::fullFdp(), 2, 25'000)}, 2);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].cores[0].aloneIpc, 0.0);
    EXPECT_GT(results[0].cores[1].aloneIpc, 0.0);
}

TEST(MixRunner, TablesCoverEveryConfigAndCore)
{
    const MixSpec spec = benchMix("tab", {"swim", "art"});
    const auto results = runMixSweep(spec, twoConfigs(2, 15'000), 2);
    const Table percore = buildMixCoreTable(results);
    EXPECT_EQ(percore.numRows(), 4u);  // 2 configs x 2 cores
    const Table summary = buildMixSummaryTable(results);
    EXPECT_EQ(summary.numRows(), 2u);  // one per config
}

TEST(MixRunner, JsonCarriesRunAndPerCoreMetrics)
{
    const MixSpec spec = benchMix("json", {"swim", "art"});
    const auto results = runMixSweep(
        spec, {labeled("fdp", RunConfig::fullFdp(), 2, 15'000)}, 2);
    ResultsJson json("test");
    addMcRunResult(json, results[0]);
    std::ostringstream os;
    json.write(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("json/fdp/weighted_speedup"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/harmonic_speedup"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/fairness"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/c0/swim/ipc"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/c1/art/speedup"), std::string::npos);
    EXPECT_NE(out.find("json/fdp/c1/art/cross_pollution_suffered"),
              std::string::npos);
}

TEST(MixRunner, RejectsConfigWithWrongCoreCount)
{
    const MixSpec spec = benchMix("bad", {"swim", "art"});
    EXPECT_EXIT(
        runMixSweep(spec,
                    {labeled("fdp", RunConfig::fullFdp(), 4, 1000)}, 1),
        testing::ExitedWithCode(1), "cores");
}

TEST(MixRunnerDeathTest, ShortTraceIsFatalCountingTheWarmUp)
{
    // Every core consumes its warm-up and its measured budget, so a
    // trace that covers the measured run alone is still too short; the
    // sweep says so from the main thread, before any worker starts.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path =
        testing::TempDir() + "mix_runner_short.fdptrace";
    RunConfig record = RunConfig::noPrefetching();
    record.numInsts = 30'000;
    recordBenchmark("swim", record, "record", path);

    MixSpec spec;
    spec.name = "short";
    spec.entries = {MixEntry{"", path}, MixEntry{"art", ""}};
    McLabeledConfig cfg = labeled("fdp", RunConfig::fullFdp(), 2, 20'000);
    cfg.config.base.warmupInsts = 20'000;
    EXPECT_EXIT(runMixSweep(spec, {cfg}, 4), testing::ExitedWithCode(1),
                "holds 30000 micro-ops but this mix consumes 40000 per "
                "core");
}

} // namespace
} // namespace fdp
