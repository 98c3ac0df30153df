/**
 * @file
 * Workload mixes: named-mix catalog sanity, per-core address-slice
 * rebasing, deterministic duplicate-seed perturbation, and the
 * alone-baseline stream contract (co-run stream == alone stream + the
 * core's slice base).
 */

#include <gtest/gtest.h>

#include <set>

#include "mc/workload_mix.hh"
#include "workload/spec_suite.hh"

namespace fdp
{
namespace
{

MixSpec
benchMix(std::vector<std::string> names)
{
    MixSpec spec;
    spec.name = "test-mix";
    for (auto &n : names)
        spec.entries.push_back(MixEntry{std::move(n), ""});
    return spec;
}

TEST(WorkloadMix, NamedMixesAreWellFormed)
{
    const auto &mixes = namedMixes();
    ASSERT_FALSE(mixes.empty());
    std::set<std::string> names;
    for (const MixSpec &m : mixes) {
        EXPECT_TRUE(names.insert(m.name).second) << m.name;
        EXPECT_GE(m.numCores(), 2u) << m.name;
        for (const MixEntry &e : m.entries) {
            EXPECT_FALSE(e.benchmark.empty()) << m.name;
            EXPECT_TRUE(e.tracePath.empty()) << m.name;
            // Unknown benchmark names would be fatal here.
            benchmarkParams(e.benchmark);
        }
    }
}

TEST(WorkloadMix, CatalogHasTwoAndFourCoreMixes)
{
    bool two = false, four = false;
    for (const MixSpec &m : namedMixes()) {
        two = two || m.numCores() == 2;
        four = four || m.numCores() == 4;
    }
    EXPECT_TRUE(two);
    EXPECT_TRUE(four);
}

TEST(WorkloadMix, CatalogHasEightAndSixteenCoreMixes)
{
    // The memory-controller co-runs (DESIGN.md §18) need mixes wide
    // enough to oversubscribe a multi-channel bus.
    EXPECT_EQ(mixByName("mix8-bw").numCores(), 8u);
    EXPECT_EQ(mixByName("mix8-mixed").numCores(), 8u);
    EXPECT_EQ(mixByName("mix16-bw").numCores(), 16u);
}

TEST(WorkloadMix, MixByNameRoundTripsAndRejectsUnknown)
{
    for (const MixSpec &m : namedMixes())
        EXPECT_EQ(mixByName(m.name).name, m.name);
    EXPECT_EXIT(mixByName("no-such-mix"), testing::ExitedWithCode(1),
                "unknown mix");
}

TEST(WorkloadMix, CoRunStreamsLiveInDisjointSlices)
{
    const auto workloads = buildMixWorkloads(benchMix({"swim", "art"}));
    ASSERT_EQ(workloads.size(), 2u);
    for (unsigned c = 0; c < 2; ++c) {
        const Addr lo = kCoreAddrStride * c;
        const Addr hi = lo + kCoreAddrStride;
        for (int i = 0; i < 5000; ++i) {
            const MicroOp op = workloads[c]->next();
            if (op.kind == OpKind::Int)
                continue;
            EXPECT_GE(op.addr, lo);
            EXPECT_LT(op.addr, hi);
        }
    }
}

TEST(WorkloadMix, AloneStreamMatchesCoRunStreamModuloBase)
{
    const MixSpec spec = benchMix({"swim", "mgrid"});
    const auto corun = buildMixWorkloads(spec);
    for (unsigned c = 0; c < 2; ++c) {
        const auto alone = buildAloneWorkload(spec.entries[c], 0);
        const Addr base = kCoreAddrStride * c;
        for (int i = 0; i < 5000; ++i) {
            const MicroOp a = alone->next();
            const MicroOp b = corun[c]->next();
            ASSERT_EQ(a.kind, b.kind) << "op " << i;
            ASSERT_EQ(a.pc, b.pc) << "op " << i;
            if (a.kind != OpKind::Int) {
                ASSERT_EQ(a.addr + base, b.addr) << "op " << i;
            }
        }
    }
}

TEST(WorkloadMix, AloneBaselineOfEachDuplicateReplaysItsCoRunStream)
{
    // The alone baseline of a duplicate is only right while it takes
    // the same index as the co-run build: both read duplicateIndex.
    MixSpec spec = benchMix({"swim", "mgrid", "swim", "swim"});
    spec.entries.push_back(MixEntry{"", "a.fdptrace"});
    spec.entries.push_back(MixEntry{"", "a.fdptrace"});
    const unsigned expected[] = {0, 0, 1, 2, 0, 1};
    for (unsigned c = 0; c < spec.numCores(); ++c)
        EXPECT_EQ(duplicateIndex(spec, c), expected[c]) << "core " << c;

    spec.entries.resize(4);
    const auto corun = buildMixWorkloads(spec);
    for (unsigned c = 0; c < spec.numCores(); ++c) {
        const auto alone =
            buildAloneWorkload(spec.entries[c], duplicateIndex(spec, c));
        const Addr base = kCoreAddrStride * c;
        for (int i = 0; i < 2000; ++i) {
            const MicroOp a = alone->next();
            const MicroOp b = corun[c]->next();
            ASSERT_EQ(a.kind, b.kind) << "core " << c << " op " << i;
            if (a.kind != OpKind::Int) {
                ASSERT_EQ(a.addr + base, b.addr)
                    << "core " << c << " op " << i;
            }
        }
    }
}

TEST(WorkloadMix, DuplicateBenchmarksGetDistinctStreams)
{
    const auto workloads = buildMixWorkloads(benchMix({"swim", "swim"}));
    // Both copies rebased back to a common origin must still diverge:
    // the duplicate runs a deterministically perturbed seed.
    bool diverged = false;
    for (int i = 0; i < 5000 && !diverged; ++i) {
        const MicroOp a = workloads[0]->next();
        const MicroOp b = workloads[1]->next();
        if (a.kind != b.kind)
            diverged = true;
        else if (a.kind != OpKind::Int &&
                 a.addr != b.addr - kCoreAddrStride)
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(WorkloadMix, DuplicatePerturbationIsDeterministic)
{
    const MixEntry entry{"swim", ""};
    const auto a = buildAloneWorkload(entry, 1);
    const auto b = buildAloneWorkload(entry, 1);
    for (int i = 0; i < 2000; ++i) {
        const MicroOp x = a->next();
        const MicroOp y = b->next();
        ASSERT_EQ(x.kind, y.kind);
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.pc, y.pc);
    }
}

TEST(WorkloadMix, TraceMixNamesOneCorePerPath)
{
    const MixSpec spec = traceMix({"/tmp/a.fdptrace", "/tmp/b.fdptrace"});
    EXPECT_EQ(spec.numCores(), 2u);
    EXPECT_EQ(spec.entries[0].tracePath, "/tmp/a.fdptrace");
    EXPECT_TRUE(spec.entries[0].benchmark.empty());
}

TEST(WorkloadMix, EntryMustNameExactlyOneSource)
{
    MixSpec both;
    both.name = "bad";
    both.entries.push_back(MixEntry{"swim", "/tmp/x.fdptrace"});
    EXPECT_EXIT(buildMixWorkloads(both), testing::ExitedWithCode(1), "");
    MixSpec neither;
    neither.name = "bad2";
    neither.entries.push_back(MixEntry{"", ""});
    EXPECT_EXIT(buildMixWorkloads(neither), testing::ExitedWithCode(1),
                "");
}

TEST(WorkloadMix, DisplayNamePrefersTheBenchmark)
{
    EXPECT_EQ((MixEntry{"swim", ""}).displayName(), "swim");
    const std::string traceName =
        (MixEntry{"", "/tmp/foo.fdptrace"}).displayName();
    EXPECT_NE(traceName.find("foo"), std::string::npos);
}

} // namespace
} // namespace fdp
