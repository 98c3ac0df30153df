/**
 * @file
 * Unit tests for the variable-length delta prefetcher (VLDP).
 */

#include <gtest/gtest.h>

#include <vector>

#include "prefetch/vldp_prefetcher.hh"
#include "sim/snapshot.hh"
#include "support/snap_patch.hh"

namespace fdp
{
namespace
{

/** Byte address of block @p offset within 4KB page @p page. */
Addr
pageAddr(std::uint64_t page, unsigned offset)
{
    return (page << kVldpPageShift) | (Addr{offset} << kBlockShift);
}

BlockAddr
pageBlock(std::uint64_t page, unsigned offset)
{
    return (static_cast<BlockAddr>(page)
            << (kVldpPageShift - kBlockShift)) + offset;
}

std::vector<BlockAddr>
feed(VldpPrefetcher &pf, std::uint64_t page, unsigned offset,
     std::size_t budget = Prefetcher::kUnlimited)
{
    const Addr a = pageAddr(page, offset);
    std::vector<BlockAddr> out;
    pf.observe({a, blockAddr(a), 0x1000, true}, out, budget);
    return out;
}

TEST(VldpPrefetcher, ConstantDeltaChainsToDegree)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(5);  // degree 4
    const std::uint64_t page = 7;
    EXPECT_TRUE(feed(pf, page, 0).empty());  // allocate
    EXPECT_TRUE(feed(pf, page, 1).empty());  // first delta, DPTs empty
    // Third access: DPT1 knows [+1] -> +1 and each predicted delta
    // extends the speculative history, so the chain walks ahead.
    const auto out = feed(pf, page, 2);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], pageBlock(page, 3));
    EXPECT_EQ(out[1], pageBlock(page, 4));
    EXPECT_EQ(out[2], pageBlock(page, 5));
    EXPECT_EQ(out[3], pageBlock(page, 6));
}

TEST(VldpPrefetcher, OptPredictsOnFirstTouchOfNewPage)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(5);
    // Page A's second access trains OPT: first offset 5 -> delta +6.
    feed(pf, 1, 5);
    feed(pf, 1, 11);
    // A brand-new page first touched at offset 5 predicts immediately.
    const auto out = feed(pf, 2, 5);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], pageBlock(2, 11));
}

TEST(VldpPrefetcher, VariableLengthPatternLocksOn)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(5);
    const std::uint64_t page = 9;
    // The {+1, +3, +2} cycle the deltamix benchmark walks. After two
    // full periods the level-3 DPT disambiguates every step, so the
    // chained prediction tracks the pattern exactly.
    for (const unsigned off : {1u, 2u, 5u, 7u, 8u, 11u})
        feed(pf, page, off);
    const auto out = feed(pf, page, 13);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], pageBlock(page, 14));
    EXPECT_EQ(out[1], pageBlock(page, 17));
    EXPECT_EQ(out[2], pageBlock(page, 19));
    EXPECT_EQ(out[3], pageBlock(page, 20));
}

TEST(VldpPrefetcher, ConservativeLevelShortensChain)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(1);  // degree 1
    const std::uint64_t page = 3;
    feed(pf, page, 0);
    feed(pf, page, 1);
    const auto out = feed(pf, page, 2);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], pageBlock(page, 3));
}

TEST(VldpPrefetcher, BudgetCapsTheChain)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(5);
    const std::uint64_t page = 4;
    feed(pf, page, 0);
    feed(pf, page, 1);
    const auto out = feed(pf, page, 2, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], pageBlock(page, 3));
    EXPECT_EQ(out[1], pageBlock(page, 4));
}

TEST(VldpPrefetcher, ChainStopsAtThePageBoundary)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(5);
    // Train +1 on one page, then ride it to the end of another.
    feed(pf, 1, 0);
    feed(pf, 1, 1);
    feed(pf, 1, 2);
    feed(pf, 2, 61);
    const auto out = feed(pf, 2, 62);
    ASSERT_EQ(out.size(), 1u);  // 63 fits, 64 is the next page
    EXPECT_EQ(out[0], pageBlock(2, 63));
}

TEST(VldpPrefetcher, ResetDropsAllLearnedState)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(5);
    feed(pf, 1, 0);
    feed(pf, 1, 1);
    pf.reset();
    // Retrained history is back at square one: allocation, then a first
    // delta with empty DPTs.
    EXPECT_TRUE(feed(pf, 1, 2).empty());
    EXPECT_TRUE(feed(pf, 1, 3).empty());
    pf.audit();
}

TEST(VldpPrefetcher, AuditPassesOnTrainedState)
{
    VldpPrefetcher pf;
    for (unsigned page = 0; page < 24; ++page)
        for (const unsigned off : {1u, 2u, 5u, 7u, 8u, 11u, 13u})
            feed(pf, page, off);
    pf.audit();
}

TEST(VldpPrefetcher, SnapshotRoundTripIsByteExact)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(4);
    for (unsigned page = 0; page < 20; ++page)
        for (const unsigned off : {1u, 2u, 5u, 7u, 8u, 11u})
            feed(pf, page, off);
    SnapWriter w1;
    pf.saveState(w1);

    VldpPrefetcher restored;
    SnapReader r(w1.bytes());
    restored.loadState(r);
    EXPECT_TRUE(r.atEnd());
    SnapWriter w2;
    restored.saveState(w2);
    EXPECT_EQ(w1.bytes(), w2.bytes());

    // And the restored instance predicts identically from here on.
    for (unsigned page = 0; page < 20; ++page)
        EXPECT_EQ(feed(pf, page, 13), feed(restored, page, 13));
    restored.audit();
}

TEST(VldpPrefetcherDeathTest, SnapshotGeometryMismatchIsFatal)
{
    VldpPrefetcher pf;
    SnapWriter w;
    pf.saveState(w);
    VldpPrefetcherParams params;
    params.dhbEntries = 8;  // saved with 16
    VldpPrefetcher other(params);
    SnapReader r(w.bytes());
    EXPECT_DEATH(other.loadState(r), "DHB holds");
}

// Payload offset of DHB entry 0 (after the u8 level, u64 tick and u32
// DHB size); the entry is valid u8, page tag u64, last offset u8, first
// offset u8, kVldpHistLen deltas, delta count u8, LRU stamp u64.
constexpr std::size_t kDhbEntry0 = 1 + 8 + 4;

TEST(VldpPrefetcherDeathTest, RestoredFirstOffsetOutsideThePageIsFatal)
{
    // The page's second access indexes the OPT by its first offset.
    const auto bytes = savedWithByte(VldpPrefetcher(), kDhbEntry0 + 10,
                                     kVldpBlocksPerPage);
    VldpPrefetcher pf;
    SnapReader r(bytes);
    EXPECT_EXIT(pf.loadState(r), testing::ExitedWithCode(1),
                "vldp DHB first offset 64 out of range");
}

TEST(VldpPrefetcherDeathTest, RestoredDeltaCountPastTheHistoryIsFatal)
{
    // Training walks one DPT level per recorded delta.
    const auto bytes = savedWithByte(VldpPrefetcher(), kDhbEntry0 + 14,
                                     kVldpHistLen + 1);
    VldpPrefetcher pf;
    SnapReader r(bytes);
    EXPECT_EXIT(pf.loadState(r), testing::ExitedWithCode(1),
                "vldp DHB delta count 4 out of range");
}

} // namespace
} // namespace fdp
