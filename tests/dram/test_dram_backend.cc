/**
 * @file
 * DramParams timing arithmetic: transfer-cycle rounding, the unloaded
 * latency identity, the withUnloadedLatency() budget split both
 * memory-system constructors rely on, and the bus-rate check every
 * backend is built behind. Then the DramBackend base: the statistics
 * each backend registers, in order, and the geometry checks both
 * backends are built behind.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "dram/dram_backend.hh"
#include "dram/dram_controller.hh"
#include "mem/dram.hh"

namespace fdp
{
namespace
{

TEST(DramParams, TransferCyclesRoundsUp)
{
    DramParams p;
    p.busBytesPerCycle = 1.125;  // 64 / 1.125 = 56.9 -> 57
    EXPECT_EQ(p.transferCycles(), 57u);
    p.busBytesPerCycle = 64.0;
    EXPECT_EQ(p.transferCycles(), 1u);
    p.busBytesPerCycle = 32.0;
    EXPECT_EQ(p.transferCycles(), 2u);
}

TEST(DramParams, UnloadedLatencyIsConflictPlusTransferPlusReturn)
{
    DramParams p;
    EXPECT_EQ(p.unloadedLatency(),
              p.accessRowConflict + p.transferCycles() + p.returnCycles);
}

TEST(DramParams, RowEmptySplitsHitAndConflict)
{
    DramParams p;
    p.accessRowHit = 100;
    p.accessRowConflict = 300;
    EXPECT_EQ(p.accessRowEmpty(), 200u);
}

TEST(DramParams, WithUnloadedLatencyHitsTheRequestedTotal)
{
    for (Cycle total : {200u, 500u, 443u, 1000u}) {
        const DramParams p = DramParams::withUnloadedLatency(total);
        EXPECT_EQ(p.unloadedLatency(), total) << "total=" << total;
        EXPECT_LT(p.accessRowHit, p.accessRowConflict);
    }
}

TEST(DramParamsDeathTest, WithUnloadedLatencyRejectsTinyBudgets)
{
    EXPECT_DEATH(DramParams::withUnloadedLatency(10),
                 "unloaded DRAM latency");
}

TEST(DramParamsDeathTest, BackendRejectsUnusableBusRates)
{
    // Zero, negative, NaN, infinite, and so slow that one block's
    // transfer overflows a Cycle: each is a clean fatal for library
    // callers, on either backend.
    const double rates[] = {0.0, -1.0, std::nan(""),
                            std::numeric_limits<double>::infinity(),
                            1e-300};
    for (const DramKind kind : {DramKind::Flat, DramKind::Controller})
        for (const double rate : rates) {
            DramParams p;
            p.busBytesPerCycle = rate;
            DramCtrlParams ctrl;
            ctrl.kind = kind;
            EventQueue events;
            StatGroup stats{"mem"};
            EXPECT_EXIT(makeDramBackend(p, ctrl, events, stats, 1),
                        testing::ExitedWithCode(1), "DRAM bus rate")
                << rate;
        }
}

/** The name of every scalar in @p stats, in registration order. */
std::vector<std::string>
namesOf(const StatGroup &stats)
{
    std::vector<std::string> names;
    for (const ScalarStat *s : stats.scalars())
        names.push_back(s->name());
    return names;
}

std::string
descOf(const StatGroup &stats, const std::string &name)
{
    for (const ScalarStat *s : stats.scalars())
        if (s->name() == name)
            return s->desc();
    return "";
}

// Registration order is the order of the scalars in a stats snapshot,
// so these pins name the statistic that moved where SnapshotBytes.*
// would only report a different hash.
TEST(DramBackendStats, FlatModelRegistersEightInTableOrder)
{
    EventQueue events;
    StatGroup stats{"mem"};
    DramModel dram(DramParams{}, events, stats);
    EXPECT_EQ(namesOf(stats),
              (std::vector<std::string>{
                  "bus_accesses", "demand_grants", "prefetch_grants",
                  "writeback_grants", "row_hits", "row_conflicts",
                  "bus_busy_cycles", "promotions"}));
    EXPECT_EQ(descOf(stats, "bus_busy_cycles"),
              "cycles the data bus was busy");
}

TEST(DramBackendStats, ControllerRegistersElevenInTableOrder)
{
    EventQueue events;
    StatGroup stats{"mem"};
    DramCtrlParams ctrl;
    ctrl.kind = DramKind::Controller;
    DramController dram(DramParams{}, ctrl, events, stats);
    EXPECT_EQ(namesOf(stats),
              (std::vector<std::string>{
                  "bus_accesses", "demand_grants", "prefetch_grants",
                  "writeback_grants", "row_hits", "row_conflicts",
                  "row_empties", "bus_busy_cycles", "promotions",
                  "low_tier_drops", "qos_rejects"}));
    EXPECT_EQ(descOf(stats, "bus_busy_cycles"),
              "cycles any data bus was busy (all channels)");
}

TEST(DramBackendDeathTest, EitherBackendRejectsAnEmptyGeometry)
{
    for (const DramKind kind : {DramKind::Flat, DramKind::Controller}) {
        DramCtrlParams ctrl;
        ctrl.kind = kind;
        EventQueue events;
        StatGroup stats{"mem"};
        DramParams no_banks;
        no_banks.banks = 0;
        EXPECT_EXIT(makeDramBackend(no_banks, ctrl, events, stats, 1),
                    testing::ExitedWithCode(1), "nonzero banks and row");
        DramParams no_rows;
        no_rows.rowBlocks = 0;
        EXPECT_EXIT(makeDramBackend(no_rows, ctrl, events, stats, 1),
                    testing::ExitedWithCode(1), "nonzero banks and row");
        EXPECT_EXIT(makeDramBackend(DramParams{}, ctrl, events, stats, 0),
                    testing::ExitedWithCode(1), "at least one requesting");
    }
}

} // namespace
} // namespace fdp
