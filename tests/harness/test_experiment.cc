/**
 * @file
 * Tests for the experiment harness: named configurations, prefetcher
 * factory, and the RunResult plumbing.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "harness/experiment.hh"
#include "harness/sweep_pool.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/stride_prefetcher.hh"
#include "support/same_results.hh"
#include "workload/spec_suite.hh"

namespace fdp
{
namespace
{

TEST(RunConfigs, NoPrefetching)
{
    const RunConfig c = RunConfig::noPrefetching();
    EXPECT_EQ(c.prefetcher, PrefetcherKind::None);
    EXPECT_FALSE(c.fdp.dynamicAggressiveness);
    EXPECT_FALSE(c.fdp.dynamicInsertion);
}

TEST(RunConfigs, StaticLevelUsesMruByDefault)
{
    const RunConfig c = RunConfig::staticLevelConfig(4);
    EXPECT_EQ(c.staticLevel, 4u);
    EXPECT_FALSE(c.fdp.dynamicAggressiveness);
    EXPECT_EQ(c.fdp.staticInsertPos, InsertPos::Mru);
}

TEST(RunConfigs, DynamicAggressivenessKeepsMruInsertion)
{
    const RunConfig c = RunConfig::dynamicAggressiveness();
    EXPECT_TRUE(c.fdp.dynamicAggressiveness);
    EXPECT_FALSE(c.fdp.dynamicInsertion);
    EXPECT_EQ(c.fdp.staticInsertPos, InsertPos::Mru);
}

TEST(RunConfigs, DynamicInsertionIsVeryAggressiveByDefault)
{
    const RunConfig c = RunConfig::dynamicInsertion();
    EXPECT_FALSE(c.fdp.dynamicAggressiveness);
    EXPECT_TRUE(c.fdp.dynamicInsertion);
    EXPECT_EQ(c.staticLevel, kMaxAggrLevel);
}

TEST(RunConfigs, FullFdpEnablesBoth)
{
    const RunConfig c = RunConfig::fullFdp();
    EXPECT_TRUE(c.fdp.dynamicAggressiveness);
    EXPECT_TRUE(c.fdp.dynamicInsertion);
    EXPECT_FALSE(c.fdp.accuracyOnly);
}

TEST(RunConfigs, AccuracyOnlyIsFdpPlusFlag)
{
    const RunConfig c = RunConfig::accuracyOnlyFdp();
    EXPECT_TRUE(c.fdp.dynamicAggressiveness);
    EXPECT_TRUE(c.fdp.accuracyOnly);
}

TEST(RunConfigs, PaperDefaults)
{
    const RunConfig c;
    EXPECT_EQ(c.machine.l2.sizeBytes, 1024u * 1024u);
    EXPECT_EQ(c.machine.l2.assoc, 16u);
    EXPECT_EQ(c.machine.l2Mshrs, 128u);
    EXPECT_EQ(c.core.robSize, 128u);
    EXPECT_EQ(c.core.width, 8u);
    EXPECT_EQ(c.fdp.intervalEvictions, 8192u);
    EXPECT_EQ(c.fdp.filterBits, 4096u);
    EXPECT_DOUBLE_EQ(c.fdp.thresholds.aLow, 0.40);
}

TEST(MakePrefetcher, ProducesRequestedKind)
{
    EXPECT_EQ(makePrefetcher(PrefetcherKind::None, 3), nullptr);
    auto s = makePrefetcher(PrefetcherKind::Stream, 2);
    ASSERT_NE(s, nullptr);
    EXPECT_STREQ(s->name(), "stream");
    EXPECT_EQ(s->aggressiveness(), 2u);
    auto g = makePrefetcher(PrefetcherKind::GhbCdc, 4);
    ASSERT_NE(g, nullptr);
    EXPECT_STREQ(g->name(), "ghb-cdc");
    EXPECT_EQ(g->aggressiveness(), 4u);
    auto t = makePrefetcher(PrefetcherKind::Stride, 5);
    ASSERT_NE(t, nullptr);
    EXPECT_STREQ(t->name(), "pc-stride");
}

TEST(PrefetcherSelection, NamesRoundTripThroughTheTable)
{
    // Every published name resolves, and concrete kinds resolve back to
    // the prefetcher that prints that name.
    for (const std::string &name : knownPrefetcherNames()) {
        const PrefetcherSelection sel = prefetcherSelectionFromName(name);
        if (sel.manager == ManagerKind::Explore) {
            EXPECT_EQ(name, "manager");
            continue;
        }
        EXPECT_EQ(std::string(prefetcherKindName(sel.kind)), name);
    }
}

TEST(PrefetcherSelection, AppliesToAConfigCopy)
{
    const RunConfig base = RunConfig::fullFdp();
    const RunConfig vldp = applyPrefetcherSelection(base, "vldp");
    EXPECT_EQ(vldp.prefetcher, PrefetcherKind::Vldp);
    EXPECT_EQ(vldp.manager, ManagerKind::Off);
    const RunConfig managed = applyPrefetcherSelection(base, "manager");
    EXPECT_EQ(managed.manager, ManagerKind::Explore);
}

TEST(PrefetcherSelectionDeath, UnknownNameIsACleanFatal)
{
    // The fdp_sim --prefetcher error path: a clean main-thread fatal
    // that lists the valid names.
    EXPECT_DEATH(prefetcherSelectionFromName("nosuch"),
                 "unknown prefetcher");
}

TEST(MakeRunPrefetcher, BuildsTheManagedZoo)
{
    RunConfig c = RunConfig::fullFdp();
    c.manager = ManagerKind::Explore;
    auto pf = makeRunPrefetcher(c);
    ASSERT_NE(pf, nullptr);
    auto *mgr = dynamic_cast<ManagedPrefetcher *>(pf.get());
    ASSERT_NE(mgr, nullptr);
    EXPECT_EQ(mgr->zooSize(), defaultManagerZoo().size());
    EXPECT_STREQ(mgr->activeName(), "stream");

    c.managerZoo = {PrefetcherKind::Vldp, PrefetcherKind::NextLine};
    auto narrow = makeRunPrefetcher(c);
    auto *nmgr = dynamic_cast<ManagedPrefetcher *>(narrow.get());
    ASSERT_NE(nmgr, nullptr);
    EXPECT_EQ(nmgr->zooSize(), 2u);
    EXPECT_STREQ(nmgr->candidate(0).name(), "vldp");
    EXPECT_STREQ(nmgr->candidate(1).name(), "nextline");
}

TEST(RunWorkload, StaticLevelReachesThePrefetcher)
{
    // A static level-1 run must never send more than distance-4-deep
    // request trains; indirectly verified via the result label and the
    // deterministic prefetch count differing from level 5.
    RunConfig c1 = RunConfig::staticLevelConfig(1);
    c1.numInsts = 200'000;
    RunConfig c5 = RunConfig::staticLevelConfig(5);
    c5.numInsts = 200'000;
    const auto r1 = runBenchmark("facerec", c1, "vc");
    const auto r5 = runBenchmark("facerec", c5, "va");
    EXPECT_EQ(r1.config, "vc");
    EXPECT_EQ(r5.config, "va");
    EXPECT_NE(r1.cycles, r5.cycles);
}

TEST(RunResultFields, ListEveryMemberOfTheStruct)
{
    // Every member is 8-byte aligned, so the listed members fill
    // sizeof(RunResult) exactly unless one is missing from the list.
    std::size_t bytes = 0;
    forEachRunResultField([&](const char *, auto member) {
        bytes += sizeof(RunResult{}.*member);
    });
    EXPECT_EQ(bytes, sizeof(RunResult))
        << "a RunResult member is missing from forEachRunResultField";
}

/** Change @p v to the nearest value that differs from it. */
void
nudge(std::string &v)
{
    v += "'";
}

void
nudge(std::uint64_t &v)
{
    ++v;
}

void
nudge(double &v)
{
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
}

template <std::size_t N>
void
nudge(std::array<double, N> &v)
{
    nudge(v.back());
}

TEST(RunResultFields, FirstDifferingFieldNamesEachField)
{
    const RunResult a;
    EXPECT_EQ(firstDifferingField(a, a), "");
    forEachRunResultField([&](const char *name, auto member) {
        RunResult b = a;
        nudge(b.*member);
        EXPECT_EQ(firstDifferingField(a, b), name);
        EXPECT_EQ(firstDifferingField(a, b, name), "");
    });

    // Doubles compare bit for bit: -0.0 == 0.0 by value, not by bits.
    RunResult negativeZero = a;
    negativeZero.pollution = -0.0;
    EXPECT_EQ(firstDifferingField(a, negativeZero), "pollution");
}

TEST(RunSeed, RunBenchmarkIsReproducible)
{
    RunConfig c = RunConfig::staticLevelConfig(3);
    c.numInsts = 150'000;
    expectBitIdentical(runBenchmark("art", c, "mid"),
                       runBenchmark("art", c, "mid"));
}

TEST(RunSeed, ConfigLabelNeverChangesTheTrace)
{
    // The seed is a function of the benchmark alone: the same machine
    // under two different labels must execute the identical workload
    // trace, so cross-config deltas compare like with like.
    RunConfig c = RunConfig::staticLevelConfig(3);
    c.numInsts = 150'000;
    const auto a = runBenchmark("swim", c, "FDP");
    const auto b = runBenchmark("swim", c, "Very Aggressive");
    EXPECT_EQ(a.config, "FDP");
    EXPECT_EQ(b.config, "Very Aggressive");
    expectBitIdentical(a, b, "config");
}

TEST(RunSeed, RunBenchmarkUsesTheCalibratedWorkloadSeed)
{
    // runBenchmark must run the benchmark's hand-calibrated
    // SyntheticParams (spec_suite.cc) unmodified — no per-config seed
    // override — so it matches a caller building the workload directly.
    RunConfig c = RunConfig::staticLevelConfig(3);
    c.numInsts = 150'000;
    SyntheticWorkload direct(benchmarkParams("swim"));
    expectBitIdentical(runWorkload(direct, c, "mid"),
                       runBenchmark("swim", c, "mid"));
}

TEST(InstructionBudget, ParsesExplicitInsts)
{
    const char *argv[] = {"bench", "--insts", "123456"};
    EXPECT_EQ(parseSweepArgs(3, const_cast<char **>(argv), 999).insts,
              123456u);
}

TEST(InstructionBudget, QuickAndDefaultStillWork)
{
    const char *quick[] = {"bench", "--quick"};
    EXPECT_EQ(parseSweepArgs(2, const_cast<char **>(quick), 999).insts,
              1'000'000u);
    const char *none[] = {"bench"};
    EXPECT_EQ(parseSweepArgs(1, const_cast<char **>(none), 999).insts,
              999u);
}

TEST(InstructionBudgetDeath, TrailingInstsFlagIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--insts"};
    EXPECT_EXIT(parseSweepArgs(2, const_cast<char **>(argv), 999).insts,
                testing::ExitedWithCode(1), "--insts requires a value");
}

TEST(InstructionBudgetDeath, NonNumericInstsIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--insts", "lots"};
    EXPECT_EXIT(parseSweepArgs(3, const_cast<char **>(argv), 999).insts,
                testing::ExitedWithCode(1), "not a positive integer");
}

TEST(InstructionBudgetDeath, ZeroInstsIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--insts", "0"};
    EXPECT_EXIT(parseSweepArgs(3, const_cast<char **>(argv), 999).insts,
                testing::ExitedWithCode(1), "at least 1");
}

TEST(InstructionBudgetDeath, TrailingDigitsGarbageIsFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--insts", "100k"};
    EXPECT_EXIT(parseSweepArgs(3, const_cast<char **>(argv), 999).insts,
                testing::ExitedWithCode(1), "not a positive integer");
}

TEST(DecimalArg, ParsesPlainDecimals)
{
    EXPECT_EQ(parseDecimalArg("--bus-gbps", "4.5"), 4.5);
    EXPECT_EQ(parseDecimalArg("--bus-gbps", "12"), 12.0);
    EXPECT_EQ(parseDecimalArg("--bus-gbps", "0.25"), 0.25);
}

TEST(DecimalArgDeath, MalformedValuesAreFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"abc", "nan", "4.5x", "1e-300", "inf", ""})
        EXPECT_EXIT(parseDecimalArg("--bus-gbps", bad),
                    testing::ExitedWithCode(1), "--bus-gbps: .*decimal")
            << bad;
}

TEST(DecimalArgDeath, NonPositiveValuesAreFatal)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"0", "-1", "0.0"})
        EXPECT_EXIT(parseDecimalArg("--bus-gbps", bad),
                    testing::ExitedWithCode(1), "--bus-gbps: must be above 0")
            << bad;
}

TEST(RunWorkload, ResultFieldsConsistent)
{
    RunConfig c = RunConfig::staticLevelConfig(3);
    c.numInsts = 300'000;
    const auto r = runBenchmark("gap", c, "mid");
    EXPECT_EQ(r.insts, 300'000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_NEAR(r.ipc,
                static_cast<double>(r.insts) /
                    static_cast<double>(r.cycles),
                1e-9);
    EXPECT_GE(r.accuracy, 0.0);
    EXPECT_LE(r.accuracy, 1.0);
    EXPECT_GE(r.lateness, 0.0);
    EXPECT_LE(r.lateness, 1.0);
    EXPECT_GE(r.pollution, 0.0);
    EXPECT_LE(r.pollution, 1.0);
    EXPECT_LE(r.prefUsed, r.prefSent);
}

} // namespace
} // namespace fdp
