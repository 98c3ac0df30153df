/**
 * @file
 * Unit and property tests for the set-associative cache with
 * arbitrary-position LRU-stack insertion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "mem/cache.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"

namespace fdp
{
namespace
{

CacheParams
smallCache(unsigned assoc = 4, std::size_t sets = 4)
{
    CacheParams p;
    p.name = "test";
    p.assoc = assoc;
    p.sizeBytes = static_cast<std::size_t>(assoc) * sets * kBlockBytes;
    return p;
}

/** Block address that maps to @p set in a cache with @p sets sets. */
BlockAddr
blockInSet(std::size_t set, std::size_t sets, std::uint64_t i)
{
    return set + i * sets;
}

TEST(Cache, MissOnEmpty)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.access(1, false).hit);
    EXPECT_FALSE(c.probe(1));
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(Cache, HitAfterInsert)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.insert(1, false, InsertPos::Mru, false).valid);
    EXPECT_TRUE(c.probe(1));
    EXPECT_TRUE(c.access(1, false).hit);
}

TEST(Cache, LruEvictionOrder)
{
    const auto p = smallCache(2, 1);
    SetAssocCache c(p);
    c.insert(10, false, InsertPos::Mru, false);
    c.insert(20, false, InsertPos::Mru, false);
    // 10 is LRU; inserting 30 must evict it.
    const CacheVictim v = c.insert(30, false, InsertPos::Mru, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.block, 10u);
    EXPECT_TRUE(c.probe(20));
    EXPECT_TRUE(c.probe(30));
}

TEST(Cache, AccessPromotesToMru)
{
    SetAssocCache c(smallCache(2, 1));
    c.insert(10, false, InsertPos::Mru, false);
    c.insert(20, false, InsertPos::Mru, false);
    c.access(10, false);  // 20 becomes LRU
    const CacheVictim v = c.insert(30, false, InsertPos::Mru, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.block, 20u);
}

TEST(Cache, PrefBitSetAndClearedOnUse)
{
    SetAssocCache c(smallCache());
    c.insert(5, true, InsertPos::Mru, false);
    CacheAccessResult r = c.access(5, false);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.hitPrefetched);
    // Second access: the bit was cleared by the first use.
    r = c.access(5, false);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.hitPrefetched);
}

TEST(Cache, HitReportsTheInstallingCore)
{
    CacheParams p = smallCache();
    p.numCores = 2;
    SetAssocCache c(p);
    c.insert(5, true, InsertPos::Mru, false, CoreId(1));
    const CacheAccessResult r = c.access(5, false);
    EXPECT_TRUE(r.hitPrefetched);
    EXPECT_EQ(r.owner, CoreId(1));
}

TEST(Cache, VictimReportsPrefBit)
{
    SetAssocCache c(smallCache(1, 1));
    c.insert(5, true, InsertPos::Mru, false);
    const CacheVictim v = c.insert(6, false, InsertPos::Mru, false);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.prefBit);  // 5 was prefetched and never used
}

TEST(Cache, UsedPrefetchVictimHasClearPrefBit)
{
    SetAssocCache c(smallCache(1, 1));
    c.insert(5, true, InsertPos::Mru, false);
    c.access(5, false);  // use it
    const CacheVictim v = c.insert(6, false, InsertPos::Mru, false);
    ASSERT_TRUE(v.valid);
    EXPECT_FALSE(v.prefBit);
}

TEST(Cache, WriteMarksDirtyAndVictimReportsIt)
{
    SetAssocCache c(smallCache(1, 1));
    c.insert(5, false, InsertPos::Mru, false);
    c.access(5, true);
    const CacheVictim v = c.insert(6, false, InsertPos::Mru, false);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, MarkDirty)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.markDirty(5));
    c.insert(5, false, InsertPos::Mru, false);
    EXPECT_TRUE(c.markDirty(5));
    const CacheVictim v = c.invalidate(5);
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, InvalidateRemoves)
{
    SetAssocCache c(smallCache());
    c.insert(5, true, InsertPos::Mru, false);
    const CacheVictim v = c.invalidate(5);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.prefBit);
    EXPECT_FALSE(c.probe(5));
    EXPECT_FALSE(c.invalidate(5).valid);
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(Cache, InsertionPositionsInFullSet)
{
    // 8-way set filled with demand blocks 0..7 (7 is MRU). Insert at each
    // position and verify the resulting stack depth.
    const std::size_t sets = 2;
    for (const auto &[pos, want] :
         {std::pair{InsertPos::Lru, 0u}, std::pair{InsertPos::Lru4, 2u},
          std::pair{InsertPos::Mid, 4u}, std::pair{InsertPos::Mru, 7u}}) {
        SetAssocCache c(smallCache(8, sets));
        for (std::uint64_t i = 0; i < 8; ++i)
            c.insert(blockInSet(0, sets, i), false, InsertPos::Mru, false);
        const BlockAddr nb = blockInSet(0, sets, 100);
        c.insert(nb, true, pos, false);
        EXPECT_EQ(c.stackDepth(nb), static_cast<int>(want))
            << "pos=" << insertPosName(pos);
    }
}

TEST(Cache, LruInsertedBlockEvictedFirst)
{
    const std::size_t sets = 1;
    SetAssocCache c(smallCache(4, sets));
    for (std::uint64_t i = 0; i < 4; ++i)
        c.insert(blockInSet(0, sets, i), false, InsertPos::Mru, false);
    const BlockAddr lru_block = blockInSet(0, sets, 50);
    c.insert(lru_block, true, InsertPos::Lru, false);  // evicts oldest
    const CacheVictim v =
        c.insert(blockInSet(0, sets, 60), false, InsertPos::Mru, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.block, lru_block);
}

TEST(Cache, DistinctSetsDoNotInterfere)
{
    const std::size_t sets = 4;
    SetAssocCache c(smallCache(2, sets));
    // Fill set 0 far beyond capacity; set 1 must keep its blocks.
    c.insert(blockInSet(1, sets, 0), false, InsertPos::Mru, false);
    for (std::uint64_t i = 0; i < 16; ++i)
        c.insert(blockInSet(0, sets, i), false, InsertPos::Mru, false);
    EXPECT_TRUE(c.probe(blockInSet(1, sets, 0)));
}

TEST(CacheDeath, DoubleInsertPanics)
{
    SetAssocCache c(smallCache());
    c.insert(5, false, InsertPos::Mru, false);
    EXPECT_DEATH(c.insert(5, false, InsertPos::Mru, false),
                 "already present");
}

TEST(CacheDeath, BadGeometryIsFatal)
{
    CacheParams p;
    p.sizeBytes = 1000;  // not divisible into 16-way 64B sets
    p.assoc = 16;
    EXPECT_DEATH({ SetAssocCache c(p); }, "");
}

// ---- Restore validation ----

/** One way of a hand-built cache snapshot section. */
struct SnapLine
{
    std::uint8_t flags = 0;  ///< bit 0 = valid
    std::uint8_t prev = 0xFF;
    std::uint8_t next = 0xFF;
    std::uint8_t owner = 0;
};

/**
 * A "cache/test" section for a 2-set x 2-way cache whose set 0 holds
 * @p set0 with the given endpoints and used count; set 1 is empty.
 */
std::vector<std::uint8_t>
cacheSection(const SnapLine (&set0)[2], std::uint8_t lru, std::uint8_t mru,
             std::uint8_t used)
{
    SnapWriter w;
    w.beginSection("cache/test");
    w.putU32(2);
    w.putU32(2);
    for (unsigned i = 0; i < 4; ++i) {
        const SnapLine l = i < 2 ? set0[i] : SnapLine{};
        w.putU64(i < 2 ? 2 * i : 0);  // tags 0 and 2 map to set 0
        w.putU8(l.flags);
        w.putU8(l.prev);
        w.putU8(l.next);
        w.putU8(l.owner);
    }
    const std::uint8_t ends[2][3] = {{lru, mru, used}, {0xFF, 0xFF, 0}};
    for (const auto &set : ends)
        for (const std::uint8_t b : set)
            w.putU8(b);
    w.endSection();
    return w.bytes();
}

/** Ways 0 (LRU) and 1 (MRU) valid and chained. */
constexpr SnapLine kSoundSet[2] = {{1, 0xFF, 1, 0}, {1, 0, 0xFF, 0}};

TEST(CacheRestore, SoundSectionRestores)
{
    SetAssocCache c(smallCache(2, 2));
    const auto bytes = cacheSection(kSoundSet, 0, 1, 2);
    SnapReader r(bytes);
    c.loadState(r);
    EXPECT_EQ(c.stackDepth(0), 0);
    EXPECT_EQ(c.stackDepth(2), 1);
    c.audit();
}

TEST(CacheRestoreDeath, UsedBeyondAssociativityIsFatal)
{
    SetAssocCache c(smallCache(2, 2));
    const auto bytes = cacheSection(kSoundSet, 0, 1, 3);
    SnapReader r(bytes);
    EXPECT_DEATH(c.loadState(r), "set 0 has a used count");
}

TEST(CacheRestoreDeath, UsedBelowValidWaysIsFatal)
{
    // used = 1 with both ways valid: insert()'s free-way walk would run
    // past the set looking for the "free" way.
    SetAssocCache c(smallCache(2, 2));
    const auto bytes = cacheSection(kSoundSet, 0, 1, 1);
    SnapReader r(bytes);
    EXPECT_DEATH(c.loadState(r), "set 0 has a used count");
}

TEST(CacheRestoreDeath, LinkPastTheSetIsFatal)
{
    SetAssocCache c(smallCache(2, 2));
    const SnapLine bad[2] = {{1, 0xFF, 7, 0}, {1, 0, 0xFF, 0}};
    const auto bytes = cacheSection(bad, 0, 1, 2);
    SnapReader r(bytes);
    EXPECT_DEATH(c.loadState(r), "runs past its valid ways");
}

TEST(CacheRestoreDeath, EndpointPastTheSetIsFatal)
{
    SetAssocCache c(smallCache(2, 2));
    const auto bytes = cacheSection(kSoundSet, 9, 1, 2);
    SnapReader r(bytes);
    EXPECT_DEATH(c.loadState(r), "runs past its valid ways");
}

TEST(CacheRestoreDeath, BrokenBackLinkIsFatal)
{
    SetAssocCache c(smallCache(2, 2));
    const SnapLine bad[2] = {{1, 0xFF, 1, 0}, {1, 1, 0xFF, 0}};
    const auto bytes = cacheSection(bad, 0, 1, 2);
    SnapReader r(bytes);
    EXPECT_DEATH(c.loadState(r), "broken link");
}

TEST(CacheRestoreDeath, ChainMissingAValidWayIsFatal)
{
    SetAssocCache c(smallCache(2, 2));
    const SnapLine bad[2] = {{1, 0xFF, 0xFF, 0}, {1, 0xFF, 0xFF, 0}};
    const auto bytes = cacheSection(bad, 0, 0, 2);
    SnapReader r(bytes);
    EXPECT_DEATH(c.loadState(r), "misses a valid way");
}

TEST(CacheRestoreDeath, OwnerOutOfRangeIsFatal)
{
    SetAssocCache c(smallCache(2, 2));
    const SnapLine bad[2] = {{1, 0xFF, 1, 0}, {1, 0, 0xFF, 3}};
    const auto bytes = cacheSection(bad, 0, 1, 2);
    SnapReader r(bytes);
    EXPECT_DEATH(c.loadState(r), "owned by a core out of range");
}

// ---- Property tests over geometry ----

class CacheProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>>
{
};

TEST_P(CacheProperty, OccupancyNeverExceedsCapacity)
{
    const auto [assoc, sets] = GetParam();
    SetAssocCache c(smallCache(assoc, sets));
    Rng rng(assoc * 1000 + sets);
    for (int i = 0; i < 5000; ++i) {
        const BlockAddr b = rng.range(assoc * sets * 4);
        if (!c.probe(b))
            c.insert(b, rng.chance(0.5),
                     static_cast<InsertPos>(rng.range(4)), rng.chance(0.3));
        else
            c.access(b, rng.chance(0.2));
        ASSERT_LE(c.occupancy(), c.numBlocks());
    }
    EXPECT_EQ(c.occupancy(), c.numBlocks());  // saturated by now
}

TEST_P(CacheProperty, StackDepthsAreAPermutation)
{
    const auto [assoc, sets] = GetParam();
    SetAssocCache c(smallCache(assoc, sets));
    Rng rng(assoc * 77 + sets);
    std::vector<BlockAddr> in_set0;
    for (unsigned i = 0; i < assoc; ++i) {
        const BlockAddr b = blockInSet(0, sets, i);
        c.insert(b, false, static_cast<InsertPos>(rng.range(4)), false);
        in_set0.push_back(b);
    }
    std::vector<bool> seen(assoc, false);
    for (const BlockAddr b : in_set0) {
        const int d = c.stackDepth(b);
        ASSERT_GE(d, 0);
        ASSERT_LT(d, static_cast<int>(assoc));
        ASSERT_FALSE(seen[static_cast<std::size_t>(d)]);
        seen[static_cast<std::size_t>(d)] = true;
    }
}

TEST_P(CacheProperty, ProbeNeverMutates)
{
    const auto [assoc, sets] = GetParam();
    SetAssocCache c(smallCache(assoc, sets));
    for (unsigned i = 0; i < assoc; ++i)
        c.insert(blockInSet(0, sets, i), false, InsertPos::Mru, false);
    const int before = c.stackDepth(blockInSet(0, sets, 0));
    for (int i = 0; i < 100; ++i)
        c.probe(blockInSet(0, sets, 0));
    EXPECT_EQ(c.stackDepth(blockInSet(0, sets, 0)), before);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(std::tuple{1u, std::size_t{8}},
                      std::tuple{2u, std::size_t{4}},
                      std::tuple{4u, std::size_t{4}},
                      std::tuple{8u, std::size_t{2}},
                      std::tuple{16u, std::size_t{16}}));

// ---- Golden equivalence against a naive reference model ----

/**
 * Straightforward reimplementation of the pre-optimization cache: per-set
 * way vectors and an explicit recency-stack vector (stack[0] = LRU),
 * promoted with erase+push_back and filled with insert-at-index. The
 * intrusive-chain SetAssocCache must reproduce its hit/victim/stack-depth
 * sequences exactly — this is the executable spec pinning the rewrite.
 */
class ReferenceLruCache
{
  public:
    ReferenceLruCache(unsigned assoc, std::size_t sets)
        : assoc_(assoc), sets_(sets)
    {
        for (auto &set : sets_)
            set.ways.resize(assoc);
    }

    CacheAccessResult
    access(BlockAddr block, bool isWrite)
    {
        Set &set = sets_[setOf(block)];
        const int w = find(set, block);
        if (w < 0)
            return {};
        Way &way = set.ways[static_cast<std::size_t>(w)];
        CacheAccessResult r{true, way.prefBit, kCore0};
        way.prefBit = false;
        if (isWrite)
            way.dirty = true;
        set.stack.erase(std::find(set.stack.begin(), set.stack.end(),
                                  static_cast<std::uint8_t>(w)));
        set.stack.push_back(static_cast<std::uint8_t>(w));
        return r;
    }

    CacheVictim
    insert(BlockAddr block, bool prefBit, InsertPos pos, bool dirty)
    {
        Set &set = sets_[setOf(block)];
        CacheVictim victim;
        std::uint8_t way_idx;
        if (set.stack.size() == assoc_) {
            way_idx = set.stack.front();
            set.stack.erase(set.stack.begin());
            const Way &v = set.ways[way_idx];
            victim = {true, v.block, v.prefBit, v.dirty, CoreId{}};
        } else {
            way_idx = 0;
            while (set.ways[way_idx].valid)
                ++way_idx;
        }
        set.ways[way_idx] = Way{true, block, prefBit, dirty};
        const auto depth = std::min<std::size_t>(
            insertStackIndex(pos, assoc_), set.stack.size());
        set.stack.insert(set.stack.begin() + static_cast<long>(depth),
                         way_idx);
        return victim;
    }

    CacheVictim
    invalidate(BlockAddr block)
    {
        Set &set = sets_[setOf(block)];
        const int w = find(set, block);
        if (w < 0)
            return {};
        Way &way = set.ways[static_cast<std::size_t>(w)];
        CacheVictim victim{true, way.block, way.prefBit, way.dirty, CoreId{}};
        way = Way{};
        set.stack.erase(std::find(set.stack.begin(), set.stack.end(),
                                  static_cast<std::uint8_t>(w)));
        return victim;
    }

    int
    stackDepth(BlockAddr block) const
    {
        const Set &set = sets_[setOf(block)];
        const int w = find(set, block);
        if (w < 0)
            return -1;
        for (std::size_t i = 0; i < set.stack.size(); ++i)
            if (set.stack[i] == static_cast<std::uint8_t>(w))
                return static_cast<int>(i);
        return -1;
    }

  private:
    struct Way
    {
        bool valid = false;
        BlockAddr block = 0;
        bool prefBit = false;
        bool dirty = false;
    };

    struct Set
    {
        std::vector<Way> ways;
        std::vector<std::uint8_t> stack;
    };

    std::size_t setOf(BlockAddr b) const { return b & (sets_.size() - 1); }

    int
    find(const Set &set, BlockAddr block) const
    {
        for (std::size_t w = 0; w < set.ways.size(); ++w)
            if (set.ways[w].valid && set.ways[w].block == block)
                return static_cast<int>(w);
        return -1;
    }

    unsigned assoc_;
    std::vector<Set> sets_;
};

class CacheGoldenEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>>
{
};

TEST_P(CacheGoldenEquivalence, MatchesReferenceUnderFuzzing)
{
    const auto [assoc, sets] = GetParam();
    SetAssocCache opt(smallCache(assoc, sets));
    ReferenceLruCache ref(assoc, sets);
    Rng rng(assoc * 31 + sets * 7 + 1);

    const std::uint64_t blocks = assoc * sets * 3;  // forces evictions
    for (int step = 0; step < 20000; ++step) {
        const BlockAddr b = rng.range(blocks);
        const unsigned op = static_cast<unsigned>(rng.range(8));
        if (op < 4) {
            // Demand access (sometimes a write); insert on miss like the
            // memory system's fill path does.
            const bool is_write = rng.chance(0.25);
            const CacheAccessResult got = opt.access(b, is_write);
            const CacheAccessResult want = ref.access(b, is_write);
            ASSERT_EQ(got.hit, want.hit) << "step " << step;
            ASSERT_EQ(got.hitPrefetched, want.hitPrefetched)
                << "step " << step;
            if (!got.hit) {
                const auto pos = static_cast<InsertPos>(rng.range(4));
                const bool pref = rng.chance(0.5);
                const bool dirty = rng.chance(0.2);
                const CacheVictim gv = opt.insert(b, pref, pos, dirty);
                const CacheVictim wv = ref.insert(b, pref, pos, dirty);
                ASSERT_EQ(gv.valid, wv.valid) << "step " << step;
                ASSERT_EQ(gv.block, wv.block) << "step " << step;
                ASSERT_EQ(gv.prefBit, wv.prefBit) << "step " << step;
                ASSERT_EQ(gv.dirty, wv.dirty) << "step " << step;
            }
        } else if (op < 6) {
            // Standalone fill at every InsertPos (covers Lru/Lru4/Mid
            // even in sets the access path keeps near-MRU).
            if (!opt.probe(b)) {
                const auto pos = static_cast<InsertPos>(rng.range(4));
                const CacheVictim gv = opt.insert(b, true, pos, false);
                const CacheVictim wv = ref.insert(b, true, pos, false);
                ASSERT_EQ(gv.valid, wv.valid) << "step " << step;
                ASSERT_EQ(gv.block, wv.block) << "step " << step;
            }
        } else if (op == 6) {
            const CacheVictim gv = opt.invalidate(b);
            const CacheVictim wv = ref.invalidate(b);
            ASSERT_EQ(gv.valid, wv.valid) << "step " << step;
            ASSERT_EQ(gv.block, wv.block) << "step " << step;
            ASSERT_EQ(gv.prefBit, wv.prefBit) << "step " << step;
            ASSERT_EQ(gv.dirty, wv.dirty) << "step " << step;
        } else {
            ASSERT_EQ(opt.stackDepth(b), ref.stackDepth(b))
                << "step " << step;
        }
        if (step % 1024 == 0)
            opt.audit();
    }

    // Full sweep: every block's recency depth agrees at the end.
    for (BlockAddr b = 0; b < blocks; ++b)
        ASSERT_EQ(opt.stackDepth(b), ref.stackDepth(b)) << "block " << b;
    opt.audit();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGoldenEquivalence,
    ::testing::Values(std::tuple{1u, std::size_t{4}},
                      std::tuple{4u, std::size_t{4}},
                      std::tuple{8u, std::size_t{2}},
                      std::tuple{16u, std::size_t{8}}));

} // namespace
} // namespace fdp
