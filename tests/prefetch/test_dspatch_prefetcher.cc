/**
 * @file
 * Unit tests for the dual-spatial-pattern prefetcher (DSPatch).
 *
 * Most tests run a single-entry Page Buffer so touching a fresh region
 * deterministically retires (and thus trains) the previous one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "prefetch/dspatch_prefetcher.hh"
#include "sim/snapshot.hh"
#include "support/snap_patch.hh"

namespace fdp
{
namespace
{

/** Byte address of block @p offset within 2KB region @p region. */
Addr
regionAddr(std::uint64_t region, unsigned offset)
{
    return (region << kDspatchRegionShift) | (Addr{offset} << kBlockShift);
}

BlockAddr
regionBlock(std::uint64_t region, unsigned offset)
{
    return (static_cast<BlockAddr>(region)
            << (kDspatchRegionShift - kBlockShift)) + offset;
}

std::vector<BlockAddr>
feed(DspatchPrefetcher &pf, std::uint64_t region, unsigned offset, Addr pc,
     double busUtil = 0.0, std::size_t budget = Prefetcher::kUnlimited)
{
    const Addr a = regionAddr(region, offset);
    std::vector<BlockAddr> out;
    pf.observe({a, blockAddr(a), pc, true, busUtil}, out, budget);
    return out;
}

DspatchPrefetcherParams
tinyPb()
{
    DspatchPrefetcherParams p;
    p.pbEntries = 1;
    return p;
}

TEST(DspatchPrefetcher, LearnedFootprintReplaysAnchoredAtTrigger)
{
    DspatchPrefetcher pf(tinyPb());
    const Addr pc = 0x100;
    // Region 1's footprint relative to its trigger block 3: {+0,+1,+2}.
    feed(pf, 1, 3, pc);
    feed(pf, 1, 4, pc);
    feed(pf, 1, 5, pc);
    feed(pf, 2, 0, 0x200);  // evicts region 1 -> trains SPT[pc]
    // Same PC triggers region 3 at block 10: the anchored pattern
    // replays around the new trigger (the trigger itself is demand).
    const auto out = feed(pf, 3, 10, pc);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], regionBlock(3, 11));
    EXPECT_EQ(out[1], regionBlock(3, 12));
}

TEST(DspatchPrefetcher, UntrainedSignatureStaysSilent)
{
    DspatchPrefetcher pf(tinyPb());
    EXPECT_TRUE(feed(pf, 1, 3, 0x100).empty());
    EXPECT_TRUE(feed(pf, 2, 3, 0x300).empty());
}

/**
 * Train one signature whose coverage and accuracy patterns diverge:
 * footprint {0..3} then footprint {0,1} leaves CovP = {0,1,2,3} (the
 * union) and AccP = {0,1} (the intersection), both with live scores.
 */
DspatchPrefetcher
dualTrained(Addr pc)
{
    DspatchPrefetcher pf(tinyPb());
    for (const unsigned off : {0u, 1u, 2u, 3u})
        feed(pf, 1, off, pc);
    for (const unsigned off : {0u, 1u})
        feed(pf, 2, off, pc);  // first touch retires region 1
    feed(pf, 3, 31, 0x900);    // retire region 2 -> second training pass
    return pf;
}

TEST(DspatchPrefetcher, IdleBusReplaysCoveragePattern)
{
    DspatchPrefetcher pf = dualTrained(0x100);
    const auto out = feed(pf, 4, 0, 0x100, 0.0);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], regionBlock(4, 1));
    EXPECT_EQ(out[1], regionBlock(4, 2));
    EXPECT_EQ(out[2], regionBlock(4, 3));
}

TEST(DspatchPrefetcher, SaturatedBusFallsBackToAccuracyPattern)
{
    DspatchPrefetcher pf = dualTrained(0x100);
    const auto out = feed(pf, 4, 0, 0x100, kDspatchBwThreshold);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], regionBlock(4, 1));
}

TEST(DspatchPrefetcher, ThrottledLevelSelectsAccuracyPattern)
{
    DspatchPrefetcher pf = dualTrained(0x100);
    pf.setAggressiveness(2);
    const auto out = feed(pf, 4, 0, 0x100, 0.0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], regionBlock(4, 1));
}

TEST(DspatchPrefetcher, ReplayIssuesNearToFarFromTheTrigger)
{
    DspatchPrefetcher pf(tinyPb());
    const Addr pc = 0x100;
    // Footprint {14, 16, 18} with trigger 16: anchored {-2, 0, +2}.
    feed(pf, 1, 16, pc);
    feed(pf, 1, 14, pc);
    feed(pf, 1, 18, pc);
    feed(pf, 2, 0, 0x200);
    const auto out = feed(pf, 3, 16, pc);
    ASSERT_EQ(out.size(), 2u);
    // Equidistant pair: the upper block goes first.
    EXPECT_EQ(out[0], regionBlock(3, 18));
    EXPECT_EQ(out[1], regionBlock(3, 14));
}

/** Train one signature on a wide footprint: {+0 .. +9} from trigger. */
DspatchPrefetcher
wideTrained(Addr pc)
{
    DspatchPrefetcher pf(tinyPb());
    for (unsigned off = 0; off < 10; ++off)
        feed(pf, 1, off, pc);
    feed(pf, 2, 0, 0x200);  // evicts region 1 -> trains SPT[pc]
    return pf;
}

TEST(DspatchPrefetcher, HighestDegreeReplaysTheWholePattern)
{
    DspatchPrefetcher pf = wideTrained(0x100);
    pf.setAggressiveness(5);  // degree 32
    const auto out = feed(pf, 3, 0, 0x100);
    EXPECT_EQ(out.size(), 9u);
}

TEST(DspatchPrefetcher, ConservativeDegreeKeepsTheNearestBlocks)
{
    DspatchPrefetcher pf = wideTrained(0x100);
    pf.setAggressiveness(1);  // degree 4
    const auto out = feed(pf, 3, 0, 0x100);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], regionBlock(3, 1));
    EXPECT_EQ(out[3], regionBlock(3, 4));
}

TEST(DspatchPrefetcher, BudgetCapsTheReplay)
{
    DspatchPrefetcher pf = wideTrained(0x100);
    const auto out = feed(pf, 3, 0, 0x100, 0.0, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], regionBlock(3, 1));
    EXPECT_EQ(out[1], regionBlock(3, 2));
}

TEST(DspatchPrefetcher, TriggerBlockIsNeverPrefetched)
{
    DspatchPrefetcher pf = dualTrained(0x100);
    const auto out = feed(pf, 5, 7, 0x100, 0.0);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(std::count(out.begin(), out.end(), regionBlock(5, 7)), 0);
}

TEST(DspatchPrefetcher, ResetDropsAllLearnedState)
{
    DspatchPrefetcher pf = dualTrained(0x100);
    pf.reset();
    EXPECT_TRUE(feed(pf, 6, 0, 0x100).empty());
    pf.audit();
}

TEST(DspatchPrefetcher, AuditPassesOnTrainedState)
{
    DspatchPrefetcher pf;  // default geometry this time
    for (std::uint64_t region = 1; region < 40; ++region)
        for (const unsigned off : {0u, 1u, 2u, 5u})
            feed(pf, region, off, 0x100 + 4 * (region % 8));
    pf.audit();
}

TEST(DspatchPrefetcher, SnapshotRoundTripIsByteExact)
{
    DspatchPrefetcher pf = dualTrained(0x100);
    SnapWriter w1;
    pf.saveState(w1);

    DspatchPrefetcher restored(tinyPb());
    SnapReader r(w1.bytes());
    restored.loadState(r);
    EXPECT_TRUE(r.atEnd());
    SnapWriter w2;
    restored.saveState(w2);
    EXPECT_EQ(w1.bytes(), w2.bytes());

    // Identical replay from the restored learned state.
    EXPECT_EQ(feed(pf, 7, 0, 0x100), feed(restored, 7, 0, 0x100));
    restored.audit();
}

TEST(DspatchPrefetcherDeathTest, SnapshotGeometryMismatchIsFatal)
{
    DspatchPrefetcher pf(tinyPb());
    SnapWriter w;
    pf.saveState(w);
    DspatchPrefetcher other;  // default 32-entry page buffer
    SnapReader r(w.bytes());
    EXPECT_DEATH(other.loadState(r), "page buffer holds");
}

TEST(DspatchPrefetcherDeathTest, RestoredTriggerOffsetOutsideRegionIsFatal)
{
    // Page Buffer entry 0 starts after the u8 level, u64 tick and u32
    // size; its trigger offset follows valid u8, tag u64, pattern u32.
    // Prediction shifts a 32-bit pattern by it.
    const auto bytes = savedWithByte(DspatchPrefetcher(), 13 + 13,
                                     kDspatchBlocksPerRegion);
    DspatchPrefetcher pf;
    SnapReader r(bytes);
    EXPECT_EXIT(pf.loadState(r), testing::ExitedWithCode(1),
                "dspatch PB trigger offset 32 out of range");
}

} // namespace
} // namespace fdp
