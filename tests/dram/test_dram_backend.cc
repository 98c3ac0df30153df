/**
 * @file
 * DramParams timing arithmetic: transfer-cycle rounding, the unloaded
 * latency identity, the withUnloadedLatency() budget split both
 * memory-system constructors rely on, and the bus-rate check every
 * backend is built behind.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dram/dram_backend.hh"
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

} // namespace
} // namespace fdp
