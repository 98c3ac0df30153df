/**
 * @file
 * Unit tests for the PC-based stride prefetcher (Baer-Chen RPT).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "prefetch/stride_prefetcher.hh"
#include "sim/snapshot.hh"
#include "support/snap_patch.hh"

namespace fdp
{
namespace
{

PrefetchObservation
access(Addr addr, Addr pc)
{
    return {addr, blockAddr(addr), pc, true};
}

std::vector<BlockAddr>
feed(StridePrefetcher &pf, Addr addr, Addr pc)
{
    std::vector<BlockAddr> out;
    pf.observe(access(addr, pc), out);
    return out;
}

TEST(StridePrefetcher, NoPredictionUntilSteady)
{
    StridePrefetcher pf;
    const Addr pc = 0x400;
    EXPECT_TRUE(feed(pf, 0, pc).empty());       // allocate (Initial)
    EXPECT_TRUE(feed(pf, 1000, pc).empty());    // Initial->Transient
    EXPECT_EQ(pf.entryState(pc), StridePrefetcher::State::Transient);
}

TEST(StridePrefetcher, ConstantStrideReachesSteadyAndPredicts)
{
    StridePrefetcher pf;
    pf.setAggressiveness(3);  // distance 16, degree 2
    const Addr pc = 0x400;
    const std::int64_t stride = 256;
    feed(pf, 0, pc);
    feed(pf, 256, pc);        // learn stride (Transient)
    const auto out = feed(pf, 512, pc);  // confirm -> Steady, predict
    EXPECT_EQ(pf.entryState(pc), StridePrefetcher::State::Steady);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], blockAddr(512 + stride * 15));
    EXPECT_EQ(out[1], blockAddr(512 + stride * 16));
}

TEST(StridePrefetcher, SubBlockStridesDeduplicateBlocks)
{
    StridePrefetcher pf;
    pf.setAggressiveness(5);  // distance 64, degree 4
    const Addr pc = 0x500;
    feed(pf, 0, pc);
    feed(pf, 8, pc);
    const auto out = feed(pf, 16, pc);
    // Stride 8 over 4 consecutive indices often lands in the same block;
    // duplicates must be collapsed.
    std::set<BlockAddr> uniq(out.begin(), out.end());
    EXPECT_EQ(uniq.size(), out.size());
}

TEST(StridePrefetcher, StrideChangeDropsToInitialThenRecovers)
{
    StridePrefetcher pf;
    const Addr pc = 0x600;
    feed(pf, 0, pc);
    feed(pf, 64, pc);
    feed(pf, 128, pc);
    EXPECT_EQ(pf.entryState(pc), StridePrefetcher::State::Steady);
    feed(pf, 1000, pc);  // wrong stride
    EXPECT_EQ(pf.entryState(pc), StridePrefetcher::State::Initial);
    // Old stride 64 resumes: Initial -> Steady on one confirmation.
    feed(pf, 1064, pc);
    EXPECT_EQ(pf.entryState(pc), StridePrefetcher::State::Steady);
}

TEST(StridePrefetcher, ErraticPcEndsInNoPred)
{
    StridePrefetcher pf;
    const Addr pc = 0x700;
    feed(pf, 0, pc);
    feed(pf, 100, pc);
    feed(pf, 5000, pc);
    feed(pf, 12, pc);
    EXPECT_EQ(pf.entryState(pc), StridePrefetcher::State::NoPred);
    EXPECT_TRUE(feed(pf, 99999, pc).empty());
}

TEST(StridePrefetcher, DistinctPcsTrackIndependently)
{
    StridePrefetcher pf;
    pf.setAggressiveness(1);
    const Addr pc_a = 0x400, pc_b = 0x404;
    feed(pf, 0, pc_a);
    feed(pf, 0x100000, pc_b);
    feed(pf, 4096, pc_a);
    feed(pf, 0x100000 + 128, pc_b);
    const auto out_a = feed(pf, 8192, pc_a);
    const auto out_b = feed(pf, 0x100000 + 256, pc_b);
    ASSERT_FALSE(out_a.empty());
    ASSERT_FALSE(out_b.empty());
    EXPECT_EQ(out_a[0], blockAddr(8192 + 4096 * 4));
    EXPECT_EQ(out_b[0], blockAddr(0x100000 + 256 + 128 * 4));
}

TEST(StridePrefetcher, ZeroStrideNeverPredicts)
{
    StridePrefetcher pf;
    const Addr pc = 0x800;
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(feed(pf, 0x5000, pc).empty());
}

TEST(StridePrefetcher, NegativeStrideWorks)
{
    StridePrefetcher pf;
    pf.setAggressiveness(1);  // distance 4, degree 1
    const Addr pc = 0x900;
    const Addr base = 1 << 20;
    feed(pf, base, pc);
    feed(pf, base - 4096, pc);
    const auto out = feed(pf, base - 8192, pc);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], blockAddr(base - 8192 - 4096 * 4));
}

TEST(StridePrefetcher, TableConflictReallocates)
{
    StridePrefetcherParams params;
    params.tableSize = 1;  // force conflicts
    StridePrefetcher pf(params);
    const Addr pc_a = 0x400, pc_b = 0x404;
    feed(pf, 0, pc_a);
    feed(pf, 64, pc_a);
    feed(pf, 0, pc_b);  // evicts pc_a's entry
    EXPECT_EQ(pf.entryState(pc_a), StridePrefetcher::State::NoPred);
}

TEST(StridePrefetcher, ResetClearsTable)
{
    StridePrefetcher pf;
    const Addr pc = 0xa00;
    feed(pf, 0, pc);
    feed(pf, 64, pc);
    feed(pf, 128, pc);
    pf.reset();
    EXPECT_EQ(pf.entryState(pc), StridePrefetcher::State::NoPred);
}

// Property: at every aggressiveness level, a steady stride stream's
// prediction window slides so every future block is covered.
class StrideCoverage : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(StrideCoverage, SlidingWindowCoversStream)
{
    const unsigned level = GetParam();
    StridePrefetcher pf;
    pf.setAggressiveness(level);
    const Addr pc = 0xb00;
    const std::int64_t stride = 64;  // one block per access
    std::set<BlockAddr> requested;
    Addr a = 1 << 22;
    for (int i = 0; i < 300; ++i) {
        std::vector<BlockAddr> out;
        pf.observe(access(a, pc), out);
        requested.insert(out.begin(), out.end());
        a += stride;
    }
    // After warmup the window slides one stride per access: every block
    // between the first prediction and the stream end is requested.
    const BlockAddr first = *requested.begin();
    const BlockAddr last_needed = blockAddr(a - stride);
    for (BlockAddr b = first; b <= last_needed; ++b)
        EXPECT_TRUE(requested.count(b)) << "gap at block " << b;
}

INSTANTIATE_TEST_SUITE_P(AllLevels, StrideCoverage,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(StridePrefetcherDeathTest, RestoredStateOutsideTheFsmIsFatal)
{
    // Table entry 0 starts after the u8 level, u64 tick and u32 size;
    // its FSM state follows valid u8, tag u64, last address and stride
    // i64.
    const auto bytes = savedWithByte(StridePrefetcher(), 13 + 25, 4);
    StridePrefetcher pf;
    SnapReader r(bytes);
    EXPECT_EXIT(pf.loadState(r), testing::ExitedWithCode(1),
                "pc-stride entry state 4 out of range");
}

} // namespace
} // namespace fdp
