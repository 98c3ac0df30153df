/**
 * @file
 * The PrefetchObservation::busUtil window must be sourced from the DRAM
 * backend's measured data-bus occupancy identically whichever
 * MemorySystem constructor built the machine (one-core, or N-core with
 * per-core groups): the same request stream reports the same
 * utilization through either path, for both the flat model and the
 * FR-FCFS controller.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "prefetch/stream_prefetcher.hh"

namespace fdp
{
namespace
{

/** One demand stream, returning the utilization each system reports. */
struct ParityResult
{
    double busUtil;
    std::uint64_t busBusyCycles;
    std::uint64_t busAccesses;
};

std::vector<Addr>
demandStream()
{
    // Two interleaved sequential walks: enough misses to keep the bus
    // busy across several kBusUtilWindow boundaries, plus prefetcher
    // training so prefetch traffic flows through the window too.
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < 600; ++i) {
        addrs.push_back(0x100000 + static_cast<Addr>(i) * 64);
        addrs.push_back(0x4000000 + static_cast<Addr>(i) * 128);
    }
    return addrs;
}

ParityResult
runSingle(const MachineParams &mp)
{
    EventQueue events;
    StatGroup fdp_stats{"fdp"}, mem_stats{"mem"};
    StreamPrefetcherParams sp;
    sp.initialLevel = 5;
    StreamPrefetcher pf(sp);
    FdpParams fp;
    fp.dynamicAggressiveness = false;
    FdpController fdp(fp, &pf, fdp_stats);
    MemorySystem mem(mp, events, &pf, fdp, mem_stats);
    for (const Addr a : demandStream()) {
        Cycle done = kNoCycle;
        mem.demandAccess(a, 0x1000, false, events.horizon(),
                         [&](Cycle c) { done = c; });
        // Blocking load: the bus stays busy across window boundaries,
        // so the last closed window always carries traffic.
        while (done == kNoCycle)
            events.serviceUntil(events.horizon() + 50);
    }
    mem.audit();
    return {mem.busUtilization(), mem.dram().busBusyCycles(),
            mem.dram().busAccesses()};
}

ParityResult
runMc(const MachineParams &mp)
{
    EventQueue events;
    StatGroup shared{"mem"};
    StatGroup core0{"c0"};
    StreamPrefetcherParams sp;
    sp.initialLevel = 5;
    StreamPrefetcher pf(sp);
    FdpParams fp;
    fp.dynamicAggressiveness = false;
    FdpController fdp(fp, &pf, core0);
    MemorySystem mem(mp, events, {&pf}, {&fdp}, shared, {&core0});
    for (const Addr a : demandStream()) {
        Cycle done = kNoCycle;
        mem.demandAccess(kCore0, a, 0x1000, false, events.horizon(),
                         [&](Cycle c) { done = c; });
        while (done == kNoCycle)
            events.serviceUntil(events.horizon() + 50);
    }
    mem.audit();
    return {mem.busUtilization(), mem.dram().busBusyCycles(),
            mem.dram().busAccesses()};
}

TEST(BusUtilParity, FlatBackendPathsAgree)
{
    MachineParams mp;
    const ParityResult a = runSingle(mp);
    const ParityResult b = runMc(mp);
    EXPECT_GT(a.busUtil, 0.0);
    EXPECT_EQ(a.busUtil, b.busUtil);
    EXPECT_EQ(a.busBusyCycles, b.busBusyCycles);
    EXPECT_EQ(a.busAccesses, b.busAccesses);
}

TEST(BusUtilParity, ControllerBackendPathsAgree)
{
    MachineParams mp;
    mp.dramCtrl.kind = DramKind::Controller;
    mp.dramCtrl.channels = 2;
    const ParityResult a = runSingle(mp);
    const ParityResult b = runMc(mp);
    EXPECT_GT(a.busUtil, 0.0);
    EXPECT_EQ(a.busUtil, b.busUtil);
    EXPECT_EQ(a.busBusyCycles, b.busBusyCycles);
    EXPECT_EQ(a.busAccesses, b.busAccesses);
}

TEST(BusUtilParity, ControllerNormalizesByChannelCount)
{
    // The same stream on more channels must never report MORE
    // utilization: occupancy is divided by the data-bus count.
    MachineParams one;
    one.dramCtrl.kind = DramKind::Controller;
    one.dramCtrl.channels = 1;
    MachineParams four;
    four.dramCtrl.kind = DramKind::Controller;
    four.dramCtrl.channels = 4;
    const ParityResult u1 = runSingle(one);
    const ParityResult u4 = runSingle(four);
    EXPECT_GT(u1.busUtil, 0.0);
    EXPECT_GT(u4.busUtil, 0.0);
    EXPECT_LE(u4.busUtil, u1.busUtil);
}

} // namespace
} // namespace fdp
