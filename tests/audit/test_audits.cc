/**
 * @file
 * Death tests proving every audit() actually catches corruption.
 *
 * Each test builds a component in a healthy (and where needed, populated)
 * state, verifies the clean audit passes, then flips exactly one private
 * field through the AuditCorrupter backdoor and expects the audit to
 * panic with the matching diagnostic. This is the negative half of the
 * invariant layer: without it a vacuous audit() would pass silently.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "support/corrupt.hh"
#include "trace/trace_writer.hh"

namespace fdp
{
namespace
{

// ---------------------------------------------------------------------------
// SetAssocCache
// ---------------------------------------------------------------------------

SetAssocCache
smallCache()
{
    CacheParams p;
    p.name = "testcache";
    p.sizeBytes = 4 * 1024;
    p.assoc = 4;
    SetAssocCache cache(p);
    cache.insert(0x100, false, InsertPos::Mru, false);
    cache.insert(0x200, true, InsertPos::Lru, false);
    return cache;
}

TEST(CacheAudit, CleanCachePasses)
{
    SetAssocCache cache = smallCache();
    cache.audit();
}

TEST(CacheAuditDeathTest, DuplicatedStackEntryCaught)
{
    SetAssocCache cache = smallCache();
    AuditCorrupter::cacheDuplicateStackEntry(cache);
    EXPECT_DEATH(cache.audit(), "recency stack holds");
}

TEST(CacheAuditDeathTest, DroppedStackEntryCaught)
{
    SetAssocCache cache = smallCache();
    AuditCorrupter::cacheDropStackEntry(cache);
    EXPECT_DEATH(cache.audit(), "recency stack holds");
}

// ---------------------------------------------------------------------------
// MshrFile
// ---------------------------------------------------------------------------

TEST(MshrAudit, CleanFilePasses)
{
    MshrFile mshrs(4);
    mshrs.allocate(0x40, false, 0);
    mshrs.audit();
}

TEST(MshrAuditDeathTest, KeyBlockMismatchCaught)
{
    MshrFile mshrs(4);
    mshrs.allocate(0x40, false, 0);
    AuditCorrupter::mshrMismatchKey(mshrs);
    EXPECT_DEATH(mshrs.audit(), "records block");
}

TEST(MshrAuditDeathTest, PrefetchEntryWithWaiterCaught)
{
    MshrFile mshrs(4);
    mshrs.allocate(0x40, false, 0);
    AuditCorrupter::mshrPrefetchWithWaiter(mshrs);
    EXPECT_DEATH(mshrs.audit(), "demand waiters");
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueAudit, CleanQueuePasses)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.audit();
}

TEST(EventQueueAuditDeathTest, EventBeforeHorizonCaught)
{
    EventQueue q;
    q.schedule(10, [] {});
    AuditCorrupter::eventQueuePastEvent(q);
    EXPECT_DEATH(q.audit(), "is before horizon");
}

TEST(EventQueueAuditDeathTest, BrokenAccountingCaught)
{
    EventQueue q;
    q.schedule(10, [] {});
    AuditCorrupter::eventQueueLoseEvent(q);
    EXPECT_DEATH(q.audit(), "scheduled");
}

// ---------------------------------------------------------------------------
// DramModel
// ---------------------------------------------------------------------------

struct DramUnderAudit
{
    EventQueue events;
    StatGroup stats{"dram"};
    DramModel dram{DramParams{}, events, stats};

    DramUnderAudit()
    {
        dram.enqueue(0x100, BusPriority::Demand, 0, [](Cycle) {});
        dram.enqueue(0x200, BusPriority::Prefetch, 0, [](Cycle) {});
        dram.enqueue(0x300, BusPriority::Writeback, 0, nullptr);
    }
};

TEST(DramAudit, CleanModelPasses)
{
    DramUnderAudit d;
    d.dram.audit();
    d.events.serviceUntil(1000000);
    d.dram.audit();
}

TEST(DramAuditDeathTest, OverfullBusQueueCaught)
{
    DramUnderAudit d;
    AuditCorrupter::dramOverfillQueue(d.dram);
    EXPECT_DEATH(d.dram.audit(), "bus queue holds");
}

TEST(DramAuditDeathTest, LostPumpEventCaught)
{
    DramUnderAudit d;
    AuditCorrupter::dramLosePump(d.dram);
    EXPECT_DEATH(d.dram.audit(), "no pump scheduled");
}

// ---------------------------------------------------------------------------
// DramController
// ---------------------------------------------------------------------------

struct DramCtrlUnderAudit
{
    EventQueue events;
    StatGroup stats{"dramctl"};
    DramController dram;

    DramCtrlUnderAudit()
        : dram(DramParams{},
               [] {
                   DramCtrlParams c;
                   c.kind = DramKind::Controller;
                   c.channels = 2;
                   return c;
               }(),
               events, stats, 2)
    {
        // One of each request kind, plus a second-core prefetch, spread
        // over both channels so every queue invariant has work to check.
        dram.enqueue(0x100, BusPriority::Demand, 0, [](Cycle) {});
        dram.enqueue(0x101, BusPriority::Demand, 0, [](Cycle) {});
        dram.enqueue(0x200, BusPriority::Prefetch, 0, [](Cycle) {},
                     kCore0, PrefetchTier::Medium);
        dram.enqueue(0x201, BusPriority::Prefetch, 0, [](Cycle) {},
                     CoreId(1), PrefetchTier::Low);
        dram.enqueue(0x300, BusPriority::Writeback, 0, nullptr);
    }
};

TEST(DramCtrlAudit, CleanControllerPasses)
{
    DramCtrlUnderAudit d;
    d.dram.audit();
    d.events.serviceUntil(1000000);
    d.dram.audit();
}

TEST(DramCtrlAuditDeathTest, OverfullReadQueueCaught)
{
    DramCtrlUnderAudit d;
    AuditCorrupter::dramCtrlOverfillQueue(d.dram);
    EXPECT_DEATH(d.dram.audit(), "read queue holds");
}

TEST(DramCtrlAuditDeathTest, LostPumpEventCaught)
{
    DramCtrlUnderAudit d;
    AuditCorrupter::dramCtrlLosePump(d.dram);
    EXPECT_DEATH(d.dram.audit(), "no pump");
}

TEST(DramCtrlAuditDeathTest, ChannelOccupancyDesyncCaught)
{
    DramCtrlUnderAudit d;
    AuditCorrupter::dramCtrlBreakChannelBusy(d.dram);
    EXPECT_DEATH(d.dram.audit(), "occupancies sum");
}

TEST(DramCtrlAuditDeathTest, MisroutedRequestCaught)
{
    DramCtrlUnderAudit d;
    AuditCorrupter::dramCtrlMisrouteRequest(d.dram);
    EXPECT_DEATH(d.dram.audit(), "routes");
}

TEST(DramCtrlAuditDeathTest, StaleDecodedRowCaught)
{
    DramCtrlUnderAudit d;
    AuditCorrupter::dramCtrlStaleKeyRow(d.dram);
    EXPECT_DEATH(d.dram.audit(), "decodes to bank");
}

TEST(DramCtrlAuditDeathTest, LiveSlabSlotOnFreeListCaught)
{
    DramCtrlUnderAudit d;
    AuditCorrupter::dramCtrlFreeLiveSlot(d.dram);
    EXPECT_DEATH(d.dram.audit(), "out of range or in use");
}

TEST(DramCtrlAuditDeathTest, CoreAttributionDesyncCaught)
{
    DramCtrlUnderAudit d;
    AuditCorrupter::dramCtrlBreakCoreSum(d.dram);
    EXPECT_DEATH(d.dram.audit(), "per-core bus accesses sum");
}

// ---------------------------------------------------------------------------
// PollutionFilter
// ---------------------------------------------------------------------------

TEST(PollutionFilterAudit, CleanFilterPasses)
{
    PollutionFilter filter(64);
    filter.onDemandBlockEvictedByPrefetch(0x123);
    filter.audit();
}

TEST(PollutionFilterAuditDeathTest, BrokenMaskCaught)
{
    PollutionFilter filter(64);
    AuditCorrupter::filterBreakMask(filter);
    EXPECT_DEATH(filter.audit(), "index mask");
}

// ---------------------------------------------------------------------------
// FeedbackCounters
// ---------------------------------------------------------------------------

TEST(FeedbackCountersAudit, CleanCountersPass)
{
    FeedbackCounters c;
    c.onPrefetchSent();
    c.onPrefetchUsed();
    c.onLatePrefetch();
    c.endInterval();
    c.audit();
}

TEST(FeedbackCountersAuditDeathTest, NegativeSmoothedValueCaught)
{
    FeedbackCounters c;
    AuditCorrupter::countersNegativeSmoothed(c);
    EXPECT_DEATH(c.audit(), "finite");
}

TEST(FeedbackCountersAuditDeathTest, LateExceedingUsedCaught)
{
    FeedbackCounters c;
    AuditCorrupter::countersLateExceedsUsed(c);
    EXPECT_DEATH(c.audit(), "used this interval");
}

// ---------------------------------------------------------------------------
// FdpController
// ---------------------------------------------------------------------------

TEST(FdpControllerAudit, CleanControllerPasses)
{
    StatGroup stats("fdp");
    FdpController fdp(FdpParams{}, nullptr, stats);
    fdp.audit();
}

TEST(FdpControllerAuditDeathTest, LevelOutOfRangeCaught)
{
    StatGroup stats("fdp");
    FdpController fdp(FdpParams{}, nullptr, stats);
    AuditCorrupter::controllerBadLevel(fdp);
    EXPECT_DEATH(fdp.audit(), "outside");
}

TEST(FdpControllerAuditDeathTest, IllegalInsertPosCaught)
{
    StatGroup stats("fdp");
    FdpController fdp(FdpParams{}, nullptr, stats);
    AuditCorrupter::controllerBadInsertPos(fdp);
    EXPECT_DEATH(fdp.audit(), "not a legal InsertPos");
}

TEST(FdpControllerAuditDeathTest, UsedExceedingSentCaught)
{
    StatGroup stats("fdp");
    FdpController fdp(FdpParams{}, nullptr, stats);
    AuditCorrupter::controllerUsedExceedsSent(fdp);
    EXPECT_DEATH(fdp.audit(), "used but only");
}

TEST(FdpControllerAuditDeathTest, PrefetcherLevelDisagreementCaught)
{
    StatGroup stats("fdp");
    StreamPrefetcher pf;
    FdpParams fp;
    fp.dynamicAggressiveness = true;
    FdpController fdp(fp, &pf, stats);
    pf.setAggressiveness(fdp.level() == 5 ? 1 : 5);
    EXPECT_DEATH(fdp.audit(), "prefetcher runs at level");
}

// ---------------------------------------------------------------------------
// Prefetchers
// ---------------------------------------------------------------------------

TEST(StreamAudit, CleanPrefetcherPasses)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    for (Addr a = 0x10000; a < 0x10400; a += 0x40)
        pf.observe({a, a >> 6, 0x1000, true}, out);
    pf.audit();
}

TEST(StreamAuditDeathTest, ZeroDirectionCaught)
{
    StreamPrefetcher pf;
    AuditCorrupter::streamZeroDirection(pf);
    EXPECT_DEATH(pf.audit(), "has direction 0");
}

TEST(StreamAuditDeathTest, IllegalStateCaught)
{
    StreamPrefetcher pf;
    AuditCorrupter::streamIllegalState(pf);
    EXPECT_DEATH(pf.audit(), "illegal state");
}

TEST(StreamAuditDeathTest, LruListDropCaught)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    for (Addr a = 0x10000; a < 0x80000; a += 0x4000)
        pf.observe({a, a >> 6, 0x1000, true}, out);
    AuditCorrupter::streamUnlinkLruHead(pf);
    EXPECT_DEATH(pf.audit(), "LRU list holds");
}

TEST(StreamAuditDeathTest, TrainingIndexDropCaught)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    for (Addr a = 0x10000; a < 0x80000; a += 0x4000)
        pf.observe({a, a >> 6, 0x1000, true}, out);
    AuditCorrupter::streamUnchainTrainEntry(pf);
    EXPECT_DEATH(pf.audit(), "training index holds");
}

TEST(GhbAudit, CleanPrefetcherPasses)
{
    GhbPrefetcher pf;
    std::vector<BlockAddr> out;
    for (Addr a = 0x10000; a < 0x10400; a += 0x80)
        pf.observe({a, a >> 6, 0x1000, true}, out);
    pf.audit();
}

TEST(GhbAuditDeathTest, LinkCycleCaught)
{
    GhbPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe({0x10000, 0x10000 >> 6, 0x1000, true}, out);
    AuditCorrupter::ghbLinkCycle(pf);
    EXPECT_DEATH(pf.audit(), "links forward");
}

TEST(StrideAudit, CleanPrefetcherPasses)
{
    StridePrefetcher pf;
    std::vector<BlockAddr> out;
    for (Addr a = 0x10000; a < 0x10400; a += 0x40)
        pf.observe({a, a >> 6, 0x1000, true}, out);
    pf.audit();
}

TEST(StrideAuditDeathTest, EntryInWrongSlotCaught)
{
    StridePrefetcher pf;
    AuditCorrupter::strideWrongSlot(pf);
    EXPECT_DEATH(pf.audit(), "hashes");
}

TEST(VldpAudit, CleanPrefetcherPasses)
{
    VldpPrefetcher pf;
    std::vector<BlockAddr> out;
    for (Addr a = 0x10000; a < 0x10400; a += 0x40)
        pf.observe({a, a >> 6, 0x1000, true}, out);
    pf.audit();
}

TEST(VldpAuditDeathTest, DptEntryInWrongSlotCaught)
{
    VldpPrefetcher pf;
    AuditCorrupter::vldpDptWrongSlot(pf);
    EXPECT_DEATH(pf.audit(), "hashes");
}

TEST(DspatchAudit, CleanPrefetcherPasses)
{
    DspatchPrefetcher pf;
    std::vector<BlockAddr> out;
    for (Addr a = 0x10000; a < 0x14000; a += 0x240)
        pf.observe({a, a >> 6, 0x1000, true}, out);
    pf.audit();
}

TEST(DspatchAuditDeathTest, LostTriggerBitCaught)
{
    DspatchPrefetcher pf;
    AuditCorrupter::dspatchLoseTriggerBit(pf);
    EXPECT_DEATH(pf.audit(), "lost its trigger bit");
}

TEST(NextLineAudit, CleanPrefetcherPasses)
{
    NextLinePrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe({0x10000, 0x10000 >> 6, 0x1000, true}, out);
    pf.audit();
}

TEST(NextLineAuditDeathTest, BadLevelCaught)
{
    NextLinePrefetcher pf;
    AuditCorrupter::prefetcherBadLevel(pf);
    EXPECT_DEATH(pf.audit(), "outside");
}

// ---------------------------------------------------------------------------
// ManagedPrefetcher (the runtime management layer over a real zoo)
// ---------------------------------------------------------------------------

ManagedPrefetcher
smallManager()
{
    std::vector<std::unique_ptr<Prefetcher>> zoo;
    zoo.push_back(std::make_unique<StreamPrefetcher>());
    zoo.push_back(std::make_unique<StridePrefetcher>());
    return ManagedPrefetcher(ManagerParams{}, std::move(zoo));
}

TEST(ManagerAudit, CleanManagerPasses)
{
    ManagedPrefetcher mgr = smallManager();
    std::vector<BlockAddr> out;
    for (Addr a = 0x10000; a < 0x10400; a += 0x40)
        mgr.observe({a, a >> 6, 0x1000, true}, out);
    mgr.intervalTick({0.5, 0.1, 0.0, 1000, 2000});
    mgr.audit();
}

TEST(ManagerAuditDeathTest, ActiveIndexOutsideZooCaught)
{
    ManagedPrefetcher mgr = smallManager();
    AuditCorrupter::managerBadActive(mgr);
    EXPECT_DEATH(mgr.audit(), "outside zoo");
}

TEST(ManagerAuditDeathTest, ExploreCursorDesyncCaught)
{
    ManagedPrefetcher mgr = smallManager();
    AuditCorrupter::managerExploreDesync(mgr);
    EXPECT_DEATH(mgr.audit(), "is live");
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

/** A small but real sealed trace to audit against. */
std::string
auditTracePath()
{
    const std::string path = testing::TempDir() + "audit_trace.fdptrace";
    TraceWriter writer(path, "audit", 7);
    for (unsigned i = 0; i < 100; ++i)
        writer.append({OpKind::Load, 0x1000 + 64ull * i, 0x4000, false});
    writer.finish();
    return path;
}

TEST(TraceReaderAudit, CleanReaderPasses)
{
    TraceReader reader(auditTracePath());
    reader.audit();
    MicroOp op;
    while (reader.next(op)) {
    }
    reader.audit();
}

TEST(TraceReaderAuditDeathTest, BufferOverrunCaught)
{
    TraceReader reader(auditTracePath());
    AuditCorrupter::traceReaderBufferOverrun(reader);
    EXPECT_DEATH(reader.audit(), "buffer cursor");
}

TEST(TraceReaderAuditDeathTest, RecordCountOverflowCaught)
{
    TraceReader reader(auditTracePath());
    AuditCorrupter::traceReaderCountOverflow(reader);
    EXPECT_DEATH(reader.audit(), "delivered");
}

TEST(TraceReaderAuditDeathTest, ConsumedAheadOfFetchedCaught)
{
    TraceReader reader(auditTracePath());
    AuditCorrupter::traceReaderConsumedAheadOfFetched(reader);
    EXPECT_DEATH(reader.audit(), "fetched bytes");
}

// ---------------------------------------------------------------------------
// MemorySystem (delegating audit over the whole hierarchy)
// ---------------------------------------------------------------------------

struct SystemUnderAudit
{
    EventQueue events;
    StatGroup fdp_stats{"fdp"};
    StatGroup mem_stats{"mem"};
    std::unique_ptr<FdpController> fdp;
    std::unique_ptr<MemorySystem> mem;

    SystemUnderAudit()
    {
        FdpParams fp;
        fp.dynamicAggressiveness = false;
        fdp = std::make_unique<FdpController>(fp, nullptr, fdp_stats);
        mem = std::make_unique<MemorySystem>(MachineParams{}, events,
                                             nullptr, *fdp, mem_stats);
        mem->demandAccess(0x100000, 0x1000, false, 0, [](Cycle) {});
        events.serviceUntil(1000000);
    }
};

TEST(MemorySystemAudit, CleanSystemPasses)
{
    SystemUnderAudit s;
    s.mem->audit();
}

TEST(MemorySystemAuditDeathTest, OverfullPrefetchQueueCaught)
{
    SystemUnderAudit s;
    AuditCorrupter::memorySystemOverfillQueue(*s.mem);
    EXPECT_DEATH(s.mem->audit(), "prefetch request queue holds");
}

TEST(MemorySystemAuditDeathTest, NestedL2CorruptionCaught)
{
    SystemUnderAudit s;
    AuditCorrupter::memorySystemCorruptL2(*s.mem);
    EXPECT_DEATH(s.mem->audit(), "L2: set");
}

// ---------------------------------------------------------------------------
// Two-core MemorySystem (core-id tagging and stat-scoping conservation)
// ---------------------------------------------------------------------------

struct TwoCoreSystemUnderAudit
{
    EventQueue events;
    StatGroup shared_stats{"mem"};
    std::deque<StatGroup> core_stats;
    std::deque<FdpController> fdps;
    std::unique_ptr<MemorySystem> mem;

    TwoCoreSystemUnderAudit()
    {
        std::vector<Prefetcher *> pf_ptrs;
        std::vector<FdpController *> fdp_ptrs;
        std::vector<StatGroup *> group_ptrs;
        for (unsigned i = 0; i < 2; ++i) {
            core_stats.emplace_back("c" + std::to_string(i));
            FdpParams fp;
            fp.dynamicAggressiveness = false;
            fp.label = "fdp_controller.c" + std::to_string(i);
            fdps.emplace_back(fp, nullptr, core_stats.back());
            pf_ptrs.push_back(nullptr);
            fdp_ptrs.push_back(&fdps.back());
            group_ptrs.push_back(&core_stats.back());
        }
        mem = std::make_unique<MemorySystem>(MachineParams{}, events,
                                             pf_ptrs, fdp_ptrs,
                                             shared_stats, group_ptrs);
        mem->demandAccess(CoreId(0), 0x100000, 0x1000, false, 0,
                          [](Cycle) {});
        mem->demandAccess(CoreId(1), 0x900000, 0x2000, false, 0,
                          [](Cycle) {});
        events.serviceUntil(1000000);
    }
};

TEST(McMemorySystemAudit, CleanSystemPasses)
{
    TwoCoreSystemUnderAudit s;
    s.mem->audit();
}

TEST(McMemorySystemAuditDeathTest, QueuedDemandWithBadCoreTagCaught)
{
    TwoCoreSystemUnderAudit s;
    AuditCorrupter::memorySystemBadCoreTag(*s.mem);
    EXPECT_DEATH(s.mem->audit(), "queued demand tagged with core");
}

TEST(McMemorySystemAuditDeathTest, OverfullPerCorePrefetchQueueCaught)
{
    // Core 1's queue: the audit must check every core's, not just core 0's.
    TwoCoreSystemUnderAudit s;
    AuditCorrupter::memorySystemOverfillQueue(*s.mem, CoreId(1));
    EXPECT_DEATH(s.mem->audit(), "core 1 prefetch request queue holds");
}

TEST(McMemorySystemAuditDeathTest, BrokenStatConservationCaught)
{
    TwoCoreSystemUnderAudit s;
    AuditCorrupter::memorySystemBreakStatConservation(*s.mem);
    EXPECT_DEATH(s.mem->audit(), "shared total");
}

TEST(McMemorySystemAuditDeathTest, DesynchronizedIntervalsCaught)
{
    TwoCoreSystemUnderAudit s;
    AuditCorrupter::controllerSkipInterval(s.fdps.back());
    EXPECT_DEATH(s.mem->audit(), "sampling intervals");
}

} // namespace
} // namespace fdp
