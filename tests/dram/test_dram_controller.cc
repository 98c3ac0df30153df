/**
 * @file
 * Unit tests for the FR-FCFS multi-channel DRAM controller: XOR
 * channel interleaving, row-hit-first scheduling, FCFS within a class,
 * FDP accuracy-tier priority and low-tier drops, the accuracy-blind
 * baseline mode, per-core QoS (in-flight cap, weighted service), row
 * policies, promotion, snapshot round-trips, and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dram/dram_controller.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"

namespace fdp
{
namespace
{

struct Fixture
{
    EventQueue events;
    StatGroup stats{"dram"};
    DramParams params;
    DramCtrlParams ctrl;
    DramController dram;

    explicit Fixture(DramCtrlParams c = oneChannel(), DramParams p = {},
                     unsigned numCores = 1)
        : params(p), ctrl(c), dram(p, c, events, stats, numCores)
    {
    }

    /** Single channel: every block routes to one queue, so grant order
     *  is fully determined by the scheduling policy under test. */
    static DramCtrlParams
    oneChannel()
    {
        DramCtrlParams c;
        c.kind = DramKind::Controller;
        c.channels = 1;
        return c;
    }

    /** Open @p block's row by completing one access to it. */
    void
    openRow(BlockAddr block)
    {
        dram.enqueue(block, BusPriority::Demand, events.horizon(),
                     [](Cycle) {});
        drain();
    }

    void
    drain()
    {
        while (dram.queued() > 0 || !events.empty())
            events.serviceUntil(events.horizon() + 10000);
    }

    /** Block in the same (bank, row) as block 0, given one channel. */
    BlockAddr
    sameRowAs0(unsigned i) const
    {
        return i;  // blocks 0..rowBlocks-1 share bank 0 row 0
    }

    /** Block in bank 0, row @p row (conflicts with row 0). */
    BlockAddr
    bank0Row(std::uint64_t row) const
    {
        return row * params.rowBlocks * params.banks * ctrl.channels;
    }
};

TEST(DramCtrl, RejectsBadGeometry)
{
    EventQueue events;
    StatGroup stats{"dram"};
    DramCtrlParams three;
    three.channels = 3;  // not a power of two
    EXPECT_DEATH(DramController(DramParams{}, three, events, stats),
                 "power-of-two");
    DramCtrlParams wide;
    wide.channels = 256;  // rowBlocks (128) % 256 != 0
    EXPECT_DEATH(DramController(DramParams{}, wide, events, stats),
                 "multiple");
}

TEST(DramCtrl, RejectsQueueDeeperThanSlotRange)
{
    EventQueue events;
    StatGroup stats{"dram"};
    DramParams deep;
    deep.queueCapacity = (std::size_t{1} << 16) + 1;  // 16-bit slab slots
    EXPECT_DEATH(DramController(deep, Fixture::oneChannel(), events, stats),
                 "queue capacity");
}

TEST(DramCtrl, XorInterleavingSpreadsConsecutiveBlocks)
{
    DramCtrlParams c;
    c.channels = 4;
    Fixture f(c);
    std::set<unsigned> seen;
    for (BlockAddr b = 0; b < 4; ++b)
        seen.insert(f.dram.channelOf(b));
    EXPECT_EQ(seen.size(), 4u);  // consecutive blocks stripe
    // The row fold remaps the stripe from row to row: block 0 and the
    // same slot one row up land on different channels.
    EXPECT_NE(f.dram.channelOf(0),
              f.dram.channelOf(f.params.rowBlocks));
}

TEST(DramCtrl, ChannelsTransferInParallel)
{
    DramCtrlParams c;
    c.channels = 2;
    Fixture f(c);
    // Blocks 0 and 1 route to different channels: both transfers
    // overlap, so both fills complete at the same cycle (the flat
    // single-bus model would space them by transferCycles).
    ASSERT_NE(f.dram.channelOf(0), f.dram.channelOf(1));
    Cycle done0 = 0, done1 = 0;
    f.dram.enqueue(0, BusPriority::Demand, 0,
                   [&](Cycle cy) { done0 = cy; });
    f.dram.enqueue(1, BusPriority::Demand, 0,
                   [&](Cycle cy) { done1 = cy; });
    f.drain();
    EXPECT_EQ(done0, done1);
    EXPECT_EQ(f.dram.busAccesses(), 2u);
    f.dram.audit();
}

TEST(DramCtrl, ColdBankIsRowEmptyNotConflict)
{
    Fixture f;
    f.openRow(0);
    EXPECT_EQ(f.dram.rowEmpties(), 1u);
    EXPECT_EQ(f.dram.rowConflicts(), 0u);
    EXPECT_EQ(f.dram.rowHits(), 0u);
}

TEST(DramCtrl, RowHitScheduledBeforeOlderConflict)
{
    Fixture f;
    f.openRow(0);
    const Cycle now = f.events.horizon();
    std::vector<int> order;
    // The conflict demand arrives FIRST, the row hit SECOND: FR-FCFS
    // still grants the row hit first.
    f.dram.enqueue(f.bank0Row(1), BusPriority::Demand, now,
                   [&](Cycle) { order.push_back(1); });
    f.dram.enqueue(f.sameRowAs0(1), BusPriority::Demand, now,
                   [&](Cycle) { order.push_back(2); });
    f.drain();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(f.dram.rowHits(), 1u);
    f.dram.audit();
}

TEST(DramCtrl, FcfsWithinEqualClass)
{
    Fixture f;
    f.openRow(0);
    const Cycle now = f.events.horizon();
    std::vector<int> order;
    // Two conflicting demands on different banks: equal class, so the
    // older request wins.
    f.dram.enqueue(f.bank0Row(1), BusPriority::Demand, now,
                   [&](Cycle) { order.push_back(1); });
    f.dram.enqueue(f.params.rowBlocks, BusPriority::Demand, now,
                   [&](Cycle) { order.push_back(2); });
    f.drain();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

TEST(DramCtrl, AccuracyTiersRankPrefetchesAroundDemands)
{
    Fixture f;
    f.openRow(0);
    const Cycle now = f.events.horizon();
    std::vector<int> order;
    // Arrival order: Low hit, Medium hit, demand conflict, High hit.
    // Medium and High row hits ride the head class (FCFS between
    // them), the demand miss follows, and the Low tier runs last.
    f.dram.enqueue(f.sameRowAs0(1), BusPriority::Prefetch, now,
                   [&](Cycle) { order.push_back(1); }, kCore0,
                   PrefetchTier::Low);
    f.dram.enqueue(f.sameRowAs0(2), BusPriority::Prefetch, now,
                   [&](Cycle) { order.push_back(2); }, kCore0,
                   PrefetchTier::Medium);
    f.dram.enqueue(f.bank0Row(1), BusPriority::Demand, now,
                   [&](Cycle) { order.push_back(3); });
    f.dram.enqueue(f.sameRowAs0(3), BusPriority::Prefetch, now,
                   [&](Cycle) { order.push_back(4); }, kCore0,
                   PrefetchTier::High);
    f.drain();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 2);
    EXPECT_EQ(order[1], 4);
    EXPECT_EQ(order[2], 3);
    EXPECT_EQ(order[3], 1);
    f.dram.audit();
}

TEST(DramCtrl, HighTierMissIsDemandEquivalentButMediumYields)
{
    // Off the open row everything is a miss: an older High prefetch
    // shares the demand class (FCFS, so it keeps its turn), while an
    // older Medium prefetch yields to the younger demand.
    {
        Fixture f;
        std::vector<int> order;
        f.dram.enqueue(f.bank0Row(1), BusPriority::Prefetch, 0,
                       [&](Cycle) { order.push_back(1); }, kCore0,
                       PrefetchTier::High);
        f.dram.enqueue(f.bank0Row(2), BusPriority::Demand, 0,
                       [&](Cycle) { order.push_back(2); });
        f.drain();
        ASSERT_EQ(order.size(), 2u);
        EXPECT_EQ(order[0], 1);
    }
    {
        Fixture f;
        std::vector<int> order;
        f.dram.enqueue(f.bank0Row(1), BusPriority::Prefetch, 0,
                       [&](Cycle) { order.push_back(1); }, kCore0,
                       PrefetchTier::Medium);
        f.dram.enqueue(f.bank0Row(2), BusPriority::Demand, 0,
                       [&](Cycle) { order.push_back(2); });
        f.drain();
        ASSERT_EQ(order.size(), 2u);
        EXPECT_EQ(order[0], 2);
    }
}

TEST(DramCtrl, AccuracyBlindModeIgnoresTiers)
{
    DramCtrlParams c = Fixture::oneChannel();
    c.fdpPriority = false;
    Fixture f(c);
    f.openRow(0);
    const Cycle now = f.events.horizon();
    std::vector<int> order;
    // Blind FR-FCFS: a Low-tier row-hit prefetch outranks an older
    // row-conflict demand (with fdpPriority on the demand would win).
    f.dram.enqueue(f.bank0Row(1), BusPriority::Demand, now,
                   [&](Cycle) { order.push_back(1); });
    f.dram.enqueue(f.sameRowAs0(1), BusPriority::Prefetch, now,
                   [&](Cycle) { order.push_back(2); }, kCore0,
                   PrefetchTier::Low);
    f.drain();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2);
    EXPECT_EQ(order[1], 1);
}

TEST(DramCtrl, LowTierDroppedUnderQueuePressure)
{
    DramCtrlParams c = Fixture::oneChannel();
    c.lowTierDropAt = 2;
    Fixture f(c);
    EXPECT_TRUE(f.dram.enqueue(f.bank0Row(1), BusPriority::Prefetch, 0,
                               [](Cycle) {}, kCore0,
                               PrefetchTier::High));
    EXPECT_TRUE(f.dram.enqueue(f.bank0Row(2), BusPriority::Prefetch, 0,
                               [](Cycle) {}, kCore0,
                               PrefetchTier::High));
    // Queue depth reached lowTierDropAt: Low is shed, High still lands.
    EXPECT_FALSE(f.dram.enqueue(f.bank0Row(3), BusPriority::Prefetch, 0,
                                [](Cycle) {}, kCore0,
                                PrefetchTier::Low));
    EXPECT_EQ(f.dram.lowTierDrops(), 1u);
    EXPECT_TRUE(f.dram.enqueue(f.bank0Row(4), BusPriority::Prefetch, 0,
                               [](Cycle) {}, kCore0,
                               PrefetchTier::High));
    f.dram.audit();
    f.drain();
}

TEST(DramCtrl, BlindModeNeverDropsLowTier)
{
    DramCtrlParams c = Fixture::oneChannel();
    c.fdpPriority = false;
    c.lowTierDropAt = 1;
    Fixture f(c);
    f.dram.enqueue(f.bank0Row(1), BusPriority::Prefetch, 0, [](Cycle) {},
                   kCore0, PrefetchTier::Low);
    EXPECT_TRUE(f.dram.enqueue(f.bank0Row(2), BusPriority::Prefetch, 0,
                               [](Cycle) {}, kCore0,
                               PrefetchTier::Low));
    EXPECT_EQ(f.dram.lowTierDrops(), 0u);
    f.drain();
}

TEST(DramCtrl, QosCapBoundsPerCoreQueuedPrefetches)
{
    DramCtrlParams c = Fixture::oneChannel();
    c.qosInFlightCap = 2;
    Fixture f(c, DramParams{}, 2);
    EXPECT_TRUE(f.dram.enqueue(f.bank0Row(1), BusPriority::Prefetch, 0,
                               [](Cycle) {}, CoreId(0)));
    EXPECT_TRUE(f.dram.enqueue(f.bank0Row(2), BusPriority::Prefetch, 0,
                               [](Cycle) {}, CoreId(0)));
    // Core 0 is at its cap; core 1 is not.
    EXPECT_FALSE(f.dram.enqueue(f.bank0Row(3), BusPriority::Prefetch, 0,
                                [](Cycle) {}, CoreId(0)));
    EXPECT_EQ(f.dram.qosRejects(), 1u);
    EXPECT_TRUE(f.dram.enqueue(f.bank0Row(4), BusPriority::Prefetch, 0,
                               [](Cycle) {}, CoreId(1)));
    f.dram.audit();
    f.drain();
    // Grants released the cap: core 0 may queue again.
    EXPECT_TRUE(f.dram.enqueue(f.bank0Row(5), BusPriority::Prefetch,
                               f.events.horizon(), [](Cycle) {},
                               CoreId(0)));
    f.drain();
}

TEST(DramCtrl, WeightedServicePrefersLeastServedCore)
{
    DramCtrlParams c = Fixture::oneChannel();
    c.qosWeighted = true;
    Fixture f(c, DramParams{}, 2);
    // Core 0 banks two grants first.
    f.dram.enqueue(f.bank0Row(1), BusPriority::Demand, 0, [](Cycle) {},
                   CoreId(0));
    f.dram.enqueue(f.bank0Row(2), BusPriority::Demand, 0, [](Cycle) {},
                   CoreId(0));
    f.drain();
    const Cycle now = f.events.horizon();
    std::vector<int> order;
    // Equal-class conflicts; core 0 arrives first but core 1 has been
    // served less, so weighted service grants core 1 first.
    f.dram.enqueue(f.bank0Row(3), BusPriority::Demand, now,
                   [&](Cycle) { order.push_back(0); }, CoreId(0));
    f.dram.enqueue(f.bank0Row(4), BusPriority::Demand, now,
                   [&](Cycle) { order.push_back(1); }, CoreId(1));
    f.drain();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 0);
    f.dram.audit();
}

TEST(DramCtrl, ClosedRowPolicyPrechargesEveryAccess)
{
    DramCtrlParams c = Fixture::oneChannel();
    c.rowPolicy = RowPolicy::Closed;
    Fixture f(c);
    f.openRow(0);
    f.openRow(1);  // same row: open policy would hit
    EXPECT_EQ(f.dram.rowHits(), 0u);
    EXPECT_EQ(f.dram.rowEmpties(), 2u);
}

TEST(DramCtrl, AdaptiveRowPolicyPrechargesAfterConflict)
{
    DramCtrlParams c = Fixture::oneChannel();
    c.rowPolicy = RowPolicy::Adaptive;
    Fixture f(c);
    f.openRow(0);                // empty, stays open
    f.openRow(1);                // hit, stays open
    f.openRow(f.bank0Row(1));    // conflict -> precharge
    f.openRow(f.bank0Row(1));    // empty again, not a second conflict
    EXPECT_EQ(f.dram.rowHits(), 1u);
    EXPECT_EQ(f.dram.rowConflicts(), 1u);
    EXPECT_EQ(f.dram.rowEmpties(), 2u);
}

TEST(DramCtrl, PromoteToDemandOutranksOlderPrefetch)
{
    Fixture f;
    std::vector<int> order;
    // Medium tier: promotion lifts the late prefetch into the demand
    // class, past an older same-tier request it would otherwise queue
    // behind.
    f.dram.enqueue(f.bank0Row(1), BusPriority::Prefetch, 0,
                   [&](Cycle) { order.push_back(1); }, kCore0,
                   PrefetchTier::Medium);
    f.dram.enqueue(f.bank0Row(2), BusPriority::Prefetch, 0,
                   [&](Cycle) { order.push_back(2); }, kCore0,
                   PrefetchTier::Medium);
    f.dram.promoteToDemand(f.bank0Row(2));
    EXPECT_EQ(f.dram.busAccesses(), 0u);  // still queued
    f.dram.audit();
    f.drain();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2);  // the promoted request went first
    EXPECT_EQ(order[1], 1);
}

TEST(DramCtrl, WritebacksRunBehindReadsUntilHighWater)
{
    DramParams p;
    p.writebackHighWater = 2;
    DramCtrlParams c = Fixture::oneChannel();
    Fixture f(c, p);
    std::vector<int> order;
    // Three writebacks breach the high water, so one pre-empts the
    // queued prefetch; the rest drain after it.
    f.dram.enqueue(f.bank0Row(1), BusPriority::Prefetch, 0,
                   [&](Cycle) { order.push_back(1); });
    for (int i = 0; i < 3; ++i)
        f.dram.enqueue(f.bank0Row(static_cast<std::uint64_t>(2 + i)),
                       BusPriority::Writeback, 0, nullptr);
    f.dram.audit();
    f.drain();
    EXPECT_EQ(f.dram.busAccesses(), 4u);
    ASSERT_EQ(order.size(), 1u);
    f.dram.audit();
}

TEST(DramCtrl, PerCoreAttributionSumsToTotal)
{
    DramCtrlParams c;
    c.channels = 2;
    Fixture f(c, DramParams{}, 3);
    for (unsigned i = 0; i < 9; ++i)
        f.dram.enqueue(i * f.params.rowBlocks, BusPriority::Demand, 0,
                       [](Cycle) {}, CoreId(i % 3));
    f.drain();
    EXPECT_EQ(f.dram.busAccessesByCore(CoreId(0)), 3u);
    EXPECT_EQ(f.dram.busAccessesByCore(CoreId(1)), 3u);
    EXPECT_EQ(f.dram.busAccessesByCore(CoreId(2)), 3u);
    f.dram.audit();
    f.dram.resetAttribution();
    f.stats.resetAll();
    f.dram.audit();
    EXPECT_EQ(f.dram.busBusyCycles(), 0u);
}

TEST(DramCtrl, SnapshotRoundTripPreservesBankAndBusState)
{
    DramCtrlParams c;
    c.channels = 2;
    Fixture a(c, DramParams{}, 2);
    // Mid-run state: open rows on several banks, staggered busFree and
    // measured occupancy per channel, per-core attribution.
    for (unsigned i = 0; i < 6; ++i)
        a.dram.enqueue(i, BusPriority::Demand, 0, [](Cycle) {},
                       CoreId(i % 2));
    a.drain();

    SnapWriter w;
    a.dram.saveState(w);

    Fixture b(c, DramParams{}, 2);
    SnapReader r(w.bytes());
    b.dram.loadState(r);

    EXPECT_EQ(b.dram.busBusyCycles(), a.dram.busBusyCycles());
    EXPECT_EQ(b.dram.busAccessesByCore(CoreId(0)),
              a.dram.busAccessesByCore(CoreId(0)));
    EXPECT_EQ(b.dram.busAccessesByCore(CoreId(1)),
              a.dram.busAccessesByCore(CoreId(1)));
    // Probe the same block on both at the same cycle: the restored
    // machine must reproduce the original's timing (open row register
    // and bus horizon both survived the round trip).
    const Cycle t = a.events.horizon();
    const std::uint64_t hits_before = a.dram.rowHits();
    Cycle done_a = 0, done_b = 0;
    a.dram.enqueue(0, BusPriority::Demand, t,
                   [&](Cycle cy) { done_a = cy; });
    b.dram.enqueue(0, BusPriority::Demand, t,
                   [&](Cycle cy) { done_b = cy; });
    a.drain();
    b.drain();
    EXPECT_EQ(done_b, done_a);
    EXPECT_EQ(a.dram.rowHits(), hits_before + 1);  // row stayed open
}

TEST(DramCtrlDeathTest, SnapshotWithQueuedRequestsDies)
{
    Fixture f;
    f.dram.enqueue(0, BusPriority::Demand, 0, [](Cycle) {});
    SnapWriter w;
    EXPECT_DEATH(f.dram.saveState(w), "not quiesced");
}

TEST(DramCtrlDeathTest, RestoreRejectsGeometryMismatch)
{
    DramCtrlParams two;
    two.channels = 2;
    Fixture a(two);
    a.openRow(0);
    SnapWriter w;
    a.dram.saveState(w);
    DramCtrlParams four;
    four.channels = 4;
    Fixture b(four);
    SnapReader r(w.bytes());
    EXPECT_DEATH(b.dram.loadState(r), "channels");
}

TEST(DramCtrl, DeterministicAcrossIdenticalRuns)
{
    // Returns the fill times plus the statistics dump, rendered while
    // the controller (whose stats register into the group) is alive.
    const auto run = [](std::vector<Cycle> *fills, std::string *dump) {
        EventQueue events;
        StatGroup stats{"dram"};
        DramCtrlParams c;
        c.channels = 2;
        c.qosWeighted = true;
        c.qosInFlightCap = 4;
        DramParams p;
        DramController dram(p, c, events, stats, 2);
        const PrefetchTier tiers[] = {PrefetchTier::High,
                                      PrefetchTier::Medium,
                                      PrefetchTier::Low};
        for (unsigned i = 0; i < 40; ++i) {
            const BlockAddr b = (i * 37) % 4096;
            const BusPriority prio = i % 3 == 0 ? BusPriority::Demand
                                                : BusPriority::Prefetch;
            dram.enqueue(b, prio, events.horizon(),
                         [fills](Cycle cy) { fills->push_back(cy); },
                         CoreId(i % 2), tiers[i % 3]);
            if (i % 5 == 0)
                events.serviceUntil(events.horizon() + 300);
        }
        while (dram.queued() > 0 || !events.empty())
            events.serviceUntil(events.horizon() + 10000);
        dram.audit();
        std::ostringstream os;
        stats.dump(os);
        *dump = os.str();
    };
    std::vector<Cycle> fills1, fills2;
    std::string dump1, dump2;
    run(&fills1, &dump1);
    run(&fills2, &dump2);
    EXPECT_EQ(fills1, fills2);
    EXPECT_FALSE(fills1.empty());
    EXPECT_EQ(dump1, dump2);
}

// ---- Golden equivalence with the linear-scan controller ----

/**
 * The controller as it was before its compact keys: per-channel
 * std::deque<Request> queues carrying their callbacks, and a pick that
 * rescans every queued read, re-decoding its bank and row, on every
 * pump. DramController must reproduce its accept/reject decisions, its
 * fill order and cycles, and every statistic exactly; this is the
 * executable spec pinning the rewrite.
 */
class ReferenceDramController
{
  public:
    ReferenceDramController(const DramParams &params,
                            const DramCtrlParams &ctrl, EventQueue &events,
                            StatGroup &stats, unsigned numCores)
        : params_(params), ctrl_(ctrl), events_(events),
          transferCycles_(params.transferCycles()), channels_(ctrl.channels),
          coreBusAccesses_(numCores, 0), coreServed_(numCores, 0),
          corePrefQueued_(numCores, 0),
          busAccesses_(stats, "bus_accesses", "blocks transferred on the bus"),
          demandGrants_(stats, "demand_grants", "demand bus grants"),
          prefetchGrants_(stats, "prefetch_grants", "prefetch bus grants"),
          writebackGrants_(stats, "writeback_grants",
                           "writeback bus grants"),
          rowHits_(stats, "row_hits", "row-buffer hits"),
          rowConflicts_(stats, "row_conflicts", "row-buffer conflicts"),
          rowEmpties_(stats, "row_empties",
                      "accesses to a precharged bank (no open row)"),
          busBusyCycles_(stats, "bus_busy_cycles",
                         "cycles any data bus was busy (all channels)"),
          promotions_(stats, "promotions", "prefetches promoted to demand"),
          lowTierDrops_(stats, "low_tier_drops",
                        "low-accuracy prefetches dropped under queue "
                        "pressure"),
          qosRejects_(stats, "qos_rejects",
                      "prefetches rejected by the per-core QoS cap")
    {
        for (Channel &c : channels_) {
            c.bankReady.assign(params_.banks, 0);
            c.openRow.assign(params_.banks, kNoRow);
        }
    }

    unsigned
    channelOf(BlockAddr block) const
    {
        return static_cast<unsigned>((block ^ (block / params_.rowBlocks)) %
                                     ctrl_.channels);
    }

    std::size_t
    readQueued(BlockAddr block) const
    {
        return channels_[channelOf(block)].readQ.size();
    }

    std::uint64_t
    busAccessesByCore(unsigned core) const
    {
        return coreBusAccesses_[core];
    }

    std::uint64_t
    busyCyclesOnChannel(unsigned ch) const
    {
        return channels_[ch].busyCycles;
    }

    bool
    enqueue(BlockAddr block, BusPriority prio, Cycle now, DoneFn done,
            CoreId core, PrefetchTier tier)
    {
        const unsigned ch = channelOf(block);
        Channel &c = channels_[ch];
        if (prio == BusPriority::Prefetch) {
            if (c.readQ.size() >= params_.queueCapacity)
                return false;
            if (ctrl_.qosInFlightCap > 0 &&
                corePrefQueued_[core.index()] >= ctrl_.qosInFlightCap) {
                ++qosRejects_;
                return false;
            }
            if (ctrl_.fdpPriority && tier == PrefetchTier::Low &&
                ctrl_.lowTierDropAt > 0 &&
                c.readQ.size() >= ctrl_.lowTierDropAt) {
                ++lowTierDrops_;
                return false;
            }
            ++corePrefQueued_[core.index()];
        }
        std::deque<Request> &q =
            prio == BusPriority::Writeback ? c.wbQ : c.readQ;
        q.push_back({block, prio, tier, now, core, std::move(done)});
        schedulePump(ch, now);
        return true;
    }

    void
    promoteToDemand(BlockAddr block)
    {
        Channel &c = channels_[channelOf(block)];
        auto it = std::find_if(c.readQ.begin(), c.readQ.end(),
                               [block](const Request &r) {
                                   return r.block == block &&
                                          r.prio == BusPriority::Prefetch;
                               });
        if (it == c.readQ.end())
            return;
        it->prio = BusPriority::Demand;
        --corePrefQueued_[it->core.index()];
        ++promotions_;
    }

  private:
    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};
    static constexpr std::size_t kNoPick = ~std::size_t{0};

    struct Request
    {
        BlockAddr block = 0;
        BusPriority prio = BusPriority::Demand;
        PrefetchTier tier = PrefetchTier::High;
        Cycle enqueueCycle = 0;
        CoreId core;
        DoneFn done;
    };

    struct Channel
    {
        std::deque<Request> readQ;
        std::deque<Request> wbQ;
        std::vector<Cycle> bankReady;
        std::vector<std::uint64_t> openRow;
        Cycle busFree = 0;
        std::uint64_t busyCycles = 0;
        bool pumpScheduled = false;
    };

    void
    decode(BlockAddr block, unsigned *bank, std::uint64_t *row) const
    {
        const BlockAddr local = block / ctrl_.channels;
        const std::uint64_t global_row = local / params_.rowBlocks;
        *bank = static_cast<unsigned>(global_row % params_.banks);
        *row = global_row / params_.banks;
    }

    unsigned
    pickClass(const Channel &c, const Request &r) const
    {
        unsigned bank;
        std::uint64_t row;
        decode(r.block, &bank, &row);
        const bool row_hit = c.openRow[bank] == row;
        if (!ctrl_.fdpPriority || r.prio == BusPriority::Demand)
            return row_hit ? 0 : 1;
        switch (r.tier) {
          case PrefetchTier::High:
            return row_hit ? 0 : 1;
          case PrefetchTier::Medium:
            return row_hit ? 0 : 2;
          case PrefetchTier::Low:
            break;
        }
        return row_hit ? 3 : 4;
    }

    std::size_t
    pickRead(const Channel &c) const
    {
        std::size_t best = kNoPick;
        unsigned best_class = 0;
        std::uint64_t best_served = 0;
        for (std::size_t i = 0; i < c.readQ.size(); ++i) {
            const Request &r = c.readQ[i];
            const unsigned cls = pickClass(c, r);
            const std::uint64_t served =
                ctrl_.qosWeighted ? coreServed_[r.core.index()] : 0;
            if (best == kNoPick || cls < best_class ||
                (cls == best_class && served < best_served)) {
                best = i;
                best_class = cls;
                best_served = served;
            }
        }
        return best;
    }

    void
    schedulePump(unsigned ch, Cycle now)
    {
        Channel &c = channels_[ch];
        if (c.pumpScheduled)
            return;
        c.pumpScheduled = true;
        events_.schedule(std::max(now, c.busFree), [this, ch] { pump(ch); });
    }

    void
    pump(unsigned ch)
    {
        Channel &c = channels_[ch];
        c.pumpScheduled = false;
        const std::size_t read = pickRead(c);
        Request req;
        if (read != kNoPick &&
            (c.readQ[read].prio == BusPriority::Demand ||
             pickClass(c, c.readQ[read]) == 0 ||
             c.wbQ.size() <= params_.writebackHighWater)) {
            req = std::move(c.readQ[read]);
            c.readQ.erase(c.readQ.begin() +
                          static_cast<std::ptrdiff_t>(read));
        } else if (!c.wbQ.empty() &&
                   (read == kNoPick ||
                    c.wbQ.size() > params_.writebackHighWater)) {
            req = std::move(c.wbQ.front());
            c.wbQ.pop_front();
        } else if (read != kNoPick) {
            req = std::move(c.readQ[read]);
            c.readQ.erase(c.readQ.begin() +
                          static_cast<std::ptrdiff_t>(read));
        } else {
            return;
        }

        const Cycle now = events_.horizon();
        unsigned bank;
        std::uint64_t row;
        decode(req.block, &bank, &row);
        const bool row_hit = c.openRow[bank] == row;
        const bool row_empty = !row_hit && c.openRow[bank] == kNoRow;
        const Cycle access = row_hit    ? params_.accessRowHit
                             : row_empty ? params_.accessRowEmpty()
                                         : params_.accessRowConflict;
        const Cycle access_start =
            std::max(req.enqueueCycle, c.bankReady[bank]);
        const Cycle data_start =
            std::max({access_start + access, c.busFree, now});
        const Cycle data_end = data_start + transferCycles_;
        c.busFree = data_end;
        c.bankReady[bank] =
            row_hit ? access_start + params_.casToCASCycles : data_end;
        switch (ctrl_.rowPolicy) {
          case RowPolicy::Open:
            c.openRow[bank] = row;
            break;
          case RowPolicy::Closed:
            c.openRow[bank] = kNoRow;
            break;
          case RowPolicy::Adaptive:
            c.openRow[bank] = row_hit || row_empty ? row : kNoRow;
            break;
        }

        ++busAccesses_;
        ++coreBusAccesses_[req.core.index()];
        c.busyCycles += transferCycles_;
        busBusyCycles_ += transferCycles_;
        if (row_hit)
            ++rowHits_;
        else if (row_empty)
            ++rowEmpties_;
        else
            ++rowConflicts_;
        switch (req.prio) {
          case BusPriority::Demand:
            ++demandGrants_;
            ++coreServed_[req.core.index()];
            break;
          case BusPriority::Prefetch:
            ++prefetchGrants_;
            ++coreServed_[req.core.index()];
            --corePrefQueued_[req.core.index()];
            break;
          case BusPriority::Writeback:
            ++writebackGrants_;
            break;
        }
        if (req.done) {
            const Cycle fill = data_end + params_.returnCycles;
            events_.schedule(fill, [fn = std::move(req.done),
                                    fill]() mutable { fn(fill); });
        }
        if (!c.readQ.empty() || !c.wbQ.empty())
            schedulePump(ch, c.busFree);
    }

    DramParams params_;
    DramCtrlParams ctrl_;
    EventQueue &events_;
    Cycle transferCycles_;
    std::deque<Channel> channels_;
    std::vector<std::uint64_t> coreBusAccesses_;
    std::vector<std::uint64_t> coreServed_;
    std::vector<unsigned> corePrefQueued_;
    ScalarStat busAccesses_;
    ScalarStat demandGrants_;
    ScalarStat prefetchGrants_;
    ScalarStat writebackGrants_;
    ScalarStat rowHits_;
    ScalarStat rowConflicts_;
    ScalarStat rowEmpties_;
    ScalarStat busBusyCycles_;
    ScalarStat promotions_;
    ScalarStat lowTierDrops_;
    ScalarStat qosRejects_;
};

/** fdpPriority, qosWeighted, qosInFlightCap, row policy, channels,
 *  cores. */
using CtrlCell =
    std::tuple<bool, bool, unsigned, RowPolicy, unsigned, unsigned>;

class DramCtrlGoldenEquivalence : public ::testing::TestWithParam<CtrlCell>
{
};

TEST_P(DramCtrlGoldenEquivalence, MatchesLinearScanControllerUnderFuzzing)
{
    const auto [fdp_priority, weighted, cap, policy, channels, cores] =
        GetParam();
    DramCtrlParams c;
    c.kind = DramKind::Controller;
    c.channels = channels;
    c.rowPolicy = policy;
    c.fdpPriority = fdp_priority;
    c.qosWeighted = weighted;
    c.qosInFlightCap = cap;
    c.lowTierDropAt = 12;
    // A small geometry so row hits, conflicts, full queues, low-tier
    // drops and the writeback high-water mark all occur.
    DramParams p;
    p.banks = 4;
    p.rowBlocks = 16;
    p.queueCapacity = 20;
    p.writebackHighWater = 6;

    EventQueue opt_events, ref_events;
    StatGroup opt_stats("dram"), ref_stats("dram");
    DramController opt(p, c, opt_events, opt_stats, cores);
    ReferenceDramController ref(p, c, ref_events, ref_stats, cores);
    Rng rng(1 + (fdp_priority ? 1 : 0) + (weighted ? 2 : 0) + cap * 4 +
            static_cast<unsigned>(policy) * 32 + channels * 128 +
            cores * 1024);

    // Each fill appends (request id, fill cycle): the firing order is the
    // grant order, and the cycles pin the bank/bus timing.
    std::vector<std::pair<unsigned, Cycle>> opt_fills, ref_fills;
    std::vector<BlockAddr> prefetched;
    const BlockAddr space = static_cast<BlockAddr>(p.rowBlocks) * channels *
                            p.banks * 6;
    BlockAddr last = 0;
    const PrefetchTier tiers[] = {PrefetchTier::High, PrefetchTier::Medium,
                                  PrefetchTier::Low};
    for (unsigned id = 0; id < 4000; ++id) {
        const unsigned op = static_cast<unsigned>(rng.range(20));
        if (op < 3) {
            ASSERT_EQ(opt_events.horizon(), ref_events.horizon());
            const Cycle until = opt_events.horizon() + rng.range(600);
            opt_events.serviceUntil(until);
            ref_events.serviceUntil(until);
            ASSERT_EQ(opt_fills, ref_fills) << "request " << id;
            continue;
        }
        if (op < 5 && !prefetched.empty()) {
            const BlockAddr b = prefetched[rng.range(prefetched.size())];
            opt.promoteToDemand(b);
            ref.promoteToDemand(b);
            continue;
        }
        // Mostly short strides from the previous block (row hits), else
        // anywhere in a few rows per bank (conflicts).
        const BlockAddr block = rng.chance(0.6)
                                    ? (last + 1 + rng.range(4)) % space
                                    : rng.range(space);
        last = block;
        const CoreId core(static_cast<unsigned>(rng.range(cores)));
        const Cycle now = opt_events.horizon();
        if (op < 10) {
            if (ref.readQueued(block) >= p.queueCapacity)
                continue;  // the MSHRs bound demands below capacity
            opt.enqueue(block, BusPriority::Demand, now,
                        [&opt_fills, id](Cycle cy) {
                            opt_fills.emplace_back(id, cy);
                        },
                        core);
            ref.enqueue(block, BusPriority::Demand, now,
                        [&ref_fills, id](Cycle cy) {
                            ref_fills.emplace_back(id, cy);
                        },
                        core, PrefetchTier::High);
        } else if (op < 17) {
            const PrefetchTier tier = tiers[rng.range(3)];
            const bool got = opt.enqueue(block, BusPriority::Prefetch, now,
                                         [&opt_fills, id](Cycle cy) {
                                             opt_fills.emplace_back(id, cy);
                                         },
                                         core, tier);
            const bool want = ref.enqueue(block, BusPriority::Prefetch, now,
                                          [&ref_fills, id](Cycle cy) {
                                              ref_fills.emplace_back(id, cy);
                                          },
                                          core, tier);
            ASSERT_EQ(got, want) << "request " << id;
            if (got) {
                prefetched.push_back(block);
                if (prefetched.size() > 64)
                    prefetched.erase(prefetched.begin());
            }
        } else {
            opt.enqueue(block, BusPriority::Writeback, now, nullptr, core);
            ref.enqueue(block, BusPriority::Writeback, now, nullptr, core,
                        PrefetchTier::High);
        }
        if (id % 256 == 0)
            opt.audit();
    }
    while (!opt_events.empty() || !ref_events.empty()) {
        const Cycle until = opt_events.horizon() + 10000;
        opt_events.serviceUntil(until);
        ref_events.serviceUntil(until);
    }
    opt.audit();
    EXPECT_EQ(opt.queued(), 0u);
    EXPECT_EQ(opt_fills, ref_fills);
    EXPECT_GT(opt_fills.size(), 400u);
    for (unsigned i = 0; i < cores; ++i)
        EXPECT_EQ(opt.busAccessesByCore(CoreId(i)), ref.busAccessesByCore(i))
            << "core " << i;
    for (unsigned ch = 0; ch < channels; ++ch)
        EXPECT_EQ(opt.busBusyCyclesOnChannel(ch),
                  ref.busyCyclesOnChannel(ch))
            << "channel " << ch;
    std::ostringstream opt_dump, ref_dump;
    opt_stats.dump(opt_dump);
    ref_stats.dump(ref_dump);
    EXPECT_EQ(opt_dump.str(), ref_dump.str());
}

std::string
ctrlCellName(const ::testing::TestParamInfo<CtrlCell> &info)
{
    const auto [fdp_priority, weighted, cap, policy, channels, cores] =
        info.param;
    const char *policies[] = {"Open", "Closed", "Adaptive"};
    return std::string(fdp_priority ? "Fdp" : "Blind") +
           (weighted ? "Weighted" : "") + "Cap" + std::to_string(cap) +
           policies[static_cast<unsigned>(policy)] + "Ch" +
           std::to_string(channels) + "Cores" + std::to_string(cores);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DramCtrlGoldenEquivalence,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(0u, 3u),
                       ::testing::Values(RowPolicy::Open, RowPolicy::Closed,
                                         RowPolicy::Adaptive),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 8u)),
    ctrlCellName);

} // namespace
} // namespace fdp
