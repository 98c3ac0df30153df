/**
 * @file
 * Integration tests for the memory hierarchy: latency composition,
 * MSHR merging, prefetch issue/drop rules, late-prefetch detection,
 * pollution bookkeeping, prefetch-cache mode, writebacks, and the
 * per-core accessors of a one-core machine without per-core groups.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/memory_system.hh"
#include "prefetch/stream_prefetcher.hh"

namespace fdp
{
namespace
{

struct System
{
    EventQueue events;
    StatGroup fdp_stats{"fdp"};
    StatGroup mem_stats{"mem"};
    std::unique_ptr<StreamPrefetcher> pf;
    std::unique_ptr<FdpController> fdp;
    std::unique_ptr<MemorySystem> mem;
    MachineParams machine;

    explicit System(bool with_prefetcher = true, FdpParams fp = {},
                    MachineParams mp = {})
        : machine(mp)
    {
        if (with_prefetcher) {
            StreamPrefetcherParams sp;
            sp.initialLevel = 5;
            pf = std::make_unique<StreamPrefetcher>(sp);
        }
        fp.dynamicAggressiveness = false;
        fdp = std::make_unique<FdpController>(fp, pf.get(), fdp_stats);
        mem = std::make_unique<MemorySystem>(machine, events, pf.get(),
                                             *fdp, mem_stats);
    }

    /** Blocking demand access helper: returns the completion cycle. */
    Cycle
    load(Addr addr, Cycle now, Addr pc = 0x1000)
    {
        Cycle done = kNoCycle;
        mem->demandAccess(addr, pc, false, now,
                          [&](Cycle c) { done = c; });
        events.serviceUntil(now + 1000000);
        return done;
    }

    void
    store(Addr addr, Cycle now, Addr pc = 0x1000)
    {
        mem->demandAccess(addr, pc, true, now, [](Cycle) {});
        events.serviceUntil(now + 1000000);
    }
};

TEST(MemorySystem, ColdMissPaysFullLatency)
{
    System s(false);
    const Cycle done = s.load(0x100000, 0);
    // L1 (2) + L2 (10) + unloaded DRAM (500)
    EXPECT_EQ(done, 2u + 10u + 500u);
    EXPECT_EQ(s.mem->l2Misses(), 1u);
}

TEST(MemorySystem, L1HitIsTwoCycles)
{
    System s(false);
    s.load(0x100000, 0);
    const Cycle t = s.events.horizon();
    EXPECT_EQ(s.load(0x100000, t) - t, 2u);
}

TEST(MemorySystem, L2HitAfterL1Eviction)
{
    System s(false);
    s.load(0x100000, 0);
    // Evict from L1 (4-way, 256 sets): 4 conflicting lines.
    const Addr l1_way_stride = 64ull * 256;  // same L1 set
    Cycle t = s.events.horizon();
    for (int i = 1; i <= 4; ++i)
        s.load(0x100000 + i * l1_way_stride * 1024, t = s.events.horizon());
    // 0x100000 maps to a distinct L2 set from the evictors (L2 has 1024
    // sets), so it is still in L2: 2 + 10 cycles.
    t = s.events.horizon();
    const Cycle done = s.load(0x100000, t);
    EXPECT_EQ(done - t, 12u);
}

TEST(MemorySystem, SecondaryMissMergesInMshr)
{
    System s(false);
    std::vector<Cycle> done;
    s.mem->demandAccess(0x200000, 0, false, 0,
                        [&](Cycle c) { done.push_back(c); });
    s.mem->demandAccess(0x200008, 0, false, 1,
                        [&](Cycle c) { done.push_back(c); });
    s.events.serviceUntil(100000);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], done[1]);  // same fill serves both
    EXPECT_EQ(s.mem->dram().busAccesses(), 1u);
}

TEST(MemorySystem, PrefetcherIssuesOnTrainedStream)
{
    System s(true);
    Cycle t = 0;
    for (int i = 0; i < 8; ++i) {
        s.load(0x400000 + i * 64, t);
        t = s.events.horizon() + 1;
    }
    EXPECT_GT(s.mem->prefetchesIssued(), 0u);
    EXPECT_GT(s.fdp->counters().prefTotal().intervalValue(), 0u);
}

TEST(MemorySystem, PrefetchedBlockHitCountsUsed)
{
    System s(true);
    Cycle t = 0;
    // Train and run a stream far enough that prefetches land, then
    // keep walking: later blocks must hit prefetched data. The walk is
    // long enough that the distance-64 overshoot at the stream's end
    // cannot dominate the accuracy.
    for (int i = 0; i < 192; ++i) {
        s.load(0x400000 + i * 64, t);
        t = s.events.horizon() + 2000;  // let every fill complete
    }
    EXPECT_GT(s.fdp->lifetimeAccuracy(), 0.5);
}

TEST(MemorySystem, LatePrefetchDetectedViaMshr)
{
    System s(true);
    Cycle t = 0;
    // Walk a stream with no think time: demands catch the prefetches
    // while they are still in flight -> late prefetches recorded.
    for (int i = 0; i < 64; ++i) {
        // The completions fire during serviceUntil() below, long after
        // this loop iteration's frame is gone: nothing may be captured
        // by reference here.
        s.mem->demandAccess(0x600000 + i * 64, 0x30, false, t,
                            [](Cycle) {});
        t += 1;  // next demand issues almost immediately
    }
    s.events.serviceUntil(10000000);
    EXPECT_GT(s.fdp->lifetimeLateness(), 0.0);
}

TEST(MemorySystem, PrefetchDroppedWhenBlockCached)
{
    System s(true);
    Cycle t = 0;
    // Warm a region, then walk it as a stream: prefetch candidates for
    // resident blocks are dropped, not sent.
    for (int i = 0; i < 32; ++i) {
        s.load(0x800000 + i * 64, t);
        t = s.events.horizon() + 2000;
    }
    // Walk it again: still resident, trainable accesses but nothing to
    // fetch.
    const std::uint64_t sent_before = s.fdp->counters().prefTotal()
                                          .intervalValue();
    for (int i = 0; i < 32; ++i) {
        s.load(0x800000 + i * 64, t);
        t = s.events.horizon() + 2000;
    }
    const std::uint64_t sent_after = s.fdp->counters().prefTotal()
                                         .intervalValue();
    EXPECT_EQ(sent_after, sent_before);
}

TEST(MemorySystem, PollutionFilterTracksPrefetchEvictions)
{
    // Tiny L2 so prefetch fills evict demand blocks quickly.
    MachineParams mp;
    mp.l2 = CacheParams{"L2", 8 * 1024, 4};  // 128 blocks
    mp.l1 = CacheParams{"L1D", 1024, 2};     // nearly no L1 filtering
    System s(true, {}, mp);
    Cycle t = 0;
    // Fill the L2 with demand data.
    for (int i = 0; i < 128; ++i) {
        s.load(0x10000000ull + i * 64, t);
        t = s.events.horizon() + 1000;
    }
    // Stream hard: prefetch fills evict the demand working set.
    for (int i = 0; i < 256; ++i) {
        s.load(0x20000000ull + i * 64, t);
        t = s.events.horizon() + 1000;
    }
    // Re-touch the original set: misses should be attributed.
    for (int i = 0; i < 128; ++i) {
        s.load(0x10000000ull + i * 64, t);
        t = s.events.horizon() + 1000;
    }
    EXPECT_GT(s.fdp->lifetimePollution(), 0.0);
}

TEST(MemorySystem, InsertionPositionRespected)
{
    // Static LRU insertion: a prefetched block must sit at stack depth 0.
    FdpParams fp;
    fp.dynamicInsertion = false;
    fp.staticInsertPos = InsertPos::Lru;
    System s(true, fp);
    Cycle t = 0;
    for (int i = 0; i < 6; ++i) {
        s.load(0xA00000 + i * 64, t);
        t = s.events.horizon() + 2000;
    }
    // Find any prefetched-but-unused block and check its depth is low.
    bool found = false;
    for (int i = 6; i < 80 && !found; ++i) {
        const BlockAddr b = blockAddr(0xA00000) + i;
        const int d = s.mem->l2().stackDepth(b);
        if (d >= 0) {
            EXPECT_LT(d, 8);  // never anywhere near MRU (15)
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(MemorySystem, WritebacksReachDram)
{
    MachineParams mp;
    mp.l1 = CacheParams{"L1D", 512, 2};  // 8 blocks: evicts immediately
    mp.l2 = CacheParams{"L2", 4096, 4};  // 64 blocks
    System s(false, {}, mp);
    Cycle t = 0;
    // Dirty many blocks, then evict them with more stores.
    for (int i = 0; i < 256; ++i) {
        s.store(0x30000000ull + i * 64, t);
        t = s.events.horizon() + 1000;
    }
    s.events.serviceUntil(t + 1000000);
    // Reading the stat group directly: publish the batched counters.
    s.mem->flushStats();
    bool saw_writeback = false;
    for (const auto *st : s.mem_stats.scalars())
        if (st->name() == "writebacks" && st->value() > 0)
            saw_writeback = true;
    EXPECT_TRUE(saw_writeback);
}

TEST(MemorySystem, PrefetchCacheModeKeepsL2Clean)
{
    MachineParams mp;
    mp.prefetchCache.enabled = true;
    mp.prefetchCache.sizeBytes = 32 * 1024;
    mp.prefetchCache.assoc = 16;
    System s(true, {}, mp);
    Cycle t = 0;
    for (int i = 0; i < 48; ++i) {
        s.load(0xB00000 + i * 64, t);
        t = s.events.horizon() + 2000;
    }
    EXPECT_GT(s.mem->prefetchCacheHits(), 0u);
    // No prefetch fill ever enters the L2 directly, so no pollution.
    EXPECT_DOUBLE_EQ(s.fdp->lifetimePollution(), 0.0);
}

TEST(MemorySystem, MshrReserveBlocksPrefetchesNotDemands)
{
    MachineParams mp;
    mp.l2Mshrs = 4;
    mp.mshrDemandReserve = 2;
    System s(true, {}, mp);
    // Issue two demand misses (fills the prefetch-eligible half).
    int done = 0;
    s.mem->demandAccess(0x1000000, 0, false, 0,
                        [&](Cycle) { ++done; });
    s.mem->demandAccess(0x2000000, 0, false, 0,
                        [&](Cycle) { ++done; });
    // A third demand still gets an MSHR (reserve) rather than stalling.
    s.mem->demandAccess(0x3000000, 0, false, 0,
                        [&](Cycle) { ++done; });
    s.events.serviceUntil(1000000);
    EXPECT_EQ(done, 3);
    EXPECT_EQ(s.mem->mshrStalls(), 0u);
}

TEST(MemorySystem, MshrFullDemandEventuallyServed)
{
    MachineParams mp;
    mp.l2Mshrs = 2;
    mp.mshrDemandReserve = 1;
    System s(false, {}, mp);
    int done = 0;
    for (int i = 0; i < 6; ++i)
        s.mem->demandAccess(0x1000000ull + i * 0x10000, 0, false, 0,
                            [&](Cycle) { ++done; });
    s.events.serviceUntil(10000000);
    EXPECT_EQ(done, 6);
    EXPECT_GT(s.mem->mshrStalls(), 0u);
    EXPECT_TRUE(s.mem->quiesced());
}

TEST(MemorySystem, QuiescedAfterDrain)
{
    System s(true);
    Cycle t = 0;
    for (int i = 0; i < 16; ++i) {
        s.load(0xC00000 + i * 64, t);
        t = s.events.horizon() + 1;
    }
    s.events.serviceUntil(t + 10000000);
    EXPECT_TRUE(s.mem->quiesced());
}

TEST(MemorySystem, NoPrefetcherMeansNoPrefetchTraffic)
{
    System s(false);
    Cycle t = 0;
    for (int i = 0; i < 64; ++i) {
        s.load(0xD00000 + i * 64, t);
        t = s.events.horizon() + 1;
    }
    s.events.serviceUntil(t + 1000000);
    EXPECT_EQ(s.mem->prefetchesIssued(), 0u);
    EXPECT_DOUBLE_EQ(s.fdp->lifetimeAccuracy(), 0.0);
}

/** Value of the statistic @p name registered in @p group. */
std::uint64_t
statValue(const StatGroup &group, const std::string &name)
{
    for (const auto *stat : group.scalars())
        if (stat->name() == name)
            return stat->value();
    ADD_FAILURE() << "no statistic " << name;
    return 0;
}

/**
 * Emits four next blocks on every observation, ignoring the queue
 * budget that every real prefetcher honours, so the Prefetch Request
 * Queue overflows and counts queue-full drops.
 */
class FloodPrefetcher : public Prefetcher
{
  public:
    const char *name() const override { return "flood"; }
    void reset() override {}
    void saveState(SnapWriter &) const override {}
    void loadState(SnapReader &) override {}

  private:
    void
    doObserve(const PrefetchObservation &obs, std::vector<BlockAddr> &out,
              std::size_t) override
    {
        for (BlockAddr d = 1; d <= 4; ++d)
            out.push_back(obs.block + d);
    }
};

/** A one-core machine without per-core groups whose two-entry Prefetch
 *  Request Queue has overflowed. */
struct OneCoreWithoutGroups
{
    static MachineParams
    twoEntryQueue()
    {
        MachineParams mp;
        mp.prefetchQueueCap = 2;
        return mp;
    }

    OneCoreWithoutGroups()
    {
        for (Addr i = 0; i < 16; ++i) {
            mem.demandAccess(0xE00000 + i * 4096, 0x1000, false,
                             events.horizon(), [](Cycle) {});
            events.serviceUntil(events.horizon() + 100000);
        }
        mem.flushStats();
    }

    EventQueue events;
    StatGroup fdpStats{"fdp"};
    StatGroup memStats{"mem"};
    FloodPrefetcher pf;
    FdpController fdp{FdpParams{}, &pf, fdpStats};
    MemorySystem mem{twoEntryQueue(), events, &pf, fdp, memStats};
};

TEST(MemorySystem, OneCoreWithoutGroupsReadsTotalsPerCore)
{
    // All of a one-core machine is core 0's, so its per-core accessors
    // answer from the machine totals.
    OneCoreWithoutGroups s;
    EXPECT_GT(s.mem.l2Misses(), 0u);
    EXPECT_EQ(s.mem.l2Misses(kCore0), s.mem.l2Misses());
    EXPECT_GT(s.mem.demandAccesses(), 0u);
    EXPECT_EQ(s.mem.demandAccesses(kCore0), s.mem.demandAccesses());
    const std::uint64_t drops =
        statValue(s.memStats, "pref_drop_queue_full");
    EXPECT_GT(drops, 0u);
    EXPECT_EQ(s.mem.prefDropQueueFull(kCore0), drops);
}

TEST(MemorySystemDeathTest, OneCoreWithoutGroupsHasNoPollutionShare)
{
    // Pollution attribution exists only per core; without the groups
    // there is no total to fall back on.
    OneCoreWithoutGroups s;
    EXPECT_DEATH(s.mem.pollutionInflicted(kCore0),
                 "no per-core pollution_inflicted");
}

} // namespace
} // namespace fdp
