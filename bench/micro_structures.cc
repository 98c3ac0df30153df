/**
 * @file
 * google-benchmark microbenchmarks for the core simulator data
 * structures: these are the per-access costs that dominate simulation
 * wall-clock time, kept here so regressions are visible.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "core/fdp_controller.hh"
#include "core/pollution_filter.hh"
#include "dram/dram_controller.hh"
#include "harness/experiment.hh"
#include "manage/prefetcher_manager.hh"
#include "mem/cache.hh"
#include "mem/mshr.hh"
#include "prefetch/dspatch_prefetcher.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/vldp_prefetcher.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workload/generators.hh"
#include "workload/spec_suite.hh"

namespace
{

using namespace fdp;

/**
 * Payload matching the real event-queue call sites: the DRAM fill
 * wrapper captures a completion callback plus the fill cycle (~40-64
 * bytes), so callbacks benchmarked here carry the same weight instead
 * of an unrealistically empty capture.
 */
using CallbackPayload = std::array<std::uint64_t, 5>;

void
BM_CacheAccessHit(benchmark::State &state)
{
    SetAssocCache cache(CacheParams{"L2", 1024 * 1024, 16});
    for (BlockAddr b = 0; b < cache.numBlocks(); ++b)
        cache.insert(b, false, InsertPos::Mru, false);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.range(cache.numBlocks()), false).hit);
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheInsertEvict(benchmark::State &state)
{
    SetAssocCache cache(CacheParams{"L2", 1024 * 1024, 16});
    Rng rng(2);
    BlockAddr next = 0;
    for (auto _ : state) {
        const BlockAddr b = next++;
        if (!cache.probe(b))
            benchmark::DoNotOptimize(
                cache.insert(b, false, InsertPos::Mru, false).valid);
    }
}
BENCHMARK(BM_CacheInsertEvict);

void
BM_CacheInsertMid(benchmark::State &state)
{
    // The arbitrary-position insertion path of paper Section 3.3.2:
    // prefetch fills landing mid-stack under Dynamic Insertion.
    SetAssocCache cache(CacheParams{"L2", 1024 * 1024, 16});
    static constexpr InsertPos kPos[3] = {InsertPos::Lru, InsertPos::Lru4,
                                          InsertPos::Mid};
    Rng rng(5);
    BlockAddr next = 0;
    unsigned p = 0;
    for (auto _ : state) {
        const BlockAddr b = next++;
        benchmark::DoNotOptimize(
            cache.insert(b, true, kPos[p], false).valid);
        p = p == 2 ? 0 : p + 1;
    }
}
BENCHMARK(BM_CacheInsertMid);

void
BM_EventQueueScheduleService(benchmark::State &state)
{
    // One schedule + one dispatch per iteration, with the queue holding
    // a steady backlog the way the DRAM pump keeps it during a run.
    EventQueue q;
    CallbackPayload payload{1, 2, 3, 4, 5};
    std::uint64_t sink = 0;
    Cycle when = 1;
    for (Cycle c = 1; c <= 64; ++c)
        q.schedule(c, [payload, &sink] { sink += payload[0]; });
    when = 64;
    for (auto _ : state) {
        ++when;
        q.schedule(when, [payload, &sink] { sink += payload[0]; });
        q.serviceUntil(when - 64);
        benchmark::DoNotOptimize(sink);
    }
    q.reset();
}
BENCHMARK(BM_EventQueueScheduleService);

void
BM_EventQueueSameCycleBurst(benchmark::State &state)
{
    // Bursts of same-cycle events (a loaded bus draining), FIFO order.
    EventQueue q;
    CallbackPayload payload{7, 7, 7, 7, 7};
    std::uint64_t sink = 0;
    Cycle when = 0;
    for (auto _ : state) {
        ++when;
        for (int i = 0; i < 16; ++i)
            q.schedule(when, [payload, &sink] { sink += payload[1]; });
        q.serviceUntil(when);
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueSameCycleBurst);

void
BM_MshrAllocateDeallocate(benchmark::State &state)
{
    // The demand-miss path: allocate on miss, find + deallocate on fill,
    // with the file ~half full the whole time.
    MshrFile mshrs(32);
    for (BlockAddr b = 0; b < 16; ++b)
        mshrs.allocate(b, false, 0);
    BlockAddr next = 16;
    for (auto _ : state) {
        const BlockAddr fresh = next++;
        mshrs.allocate(fresh, false, 0);
        const BlockAddr old = fresh - 16;
        benchmark::DoNotOptimize(mshrs.find(old));
        mshrs.deallocate(old);
    }
}
BENCHMARK(BM_MshrAllocateDeallocate);

void
BM_MshrFindMixed(benchmark::State &state)
{
    // Lookup-heavy traffic: every demand access and every prefetch
    // candidate probes the file; most probes miss.
    MshrFile mshrs(32);
    for (BlockAddr b = 0; b < 24; ++b)
        mshrs.allocate(b * 3, false, 0);
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(mshrs.find(rng.range(96)));
}
BENCHMARK(BM_MshrFindMixed);

void
BM_MshrMergeWaiter(benchmark::State &state)
{
    // A demand merging into an in-flight miss: find + waiter push, then
    // the fill moves the waiters out (the per-fill hot sequence).
    MshrFile mshrs(32);
    std::uint64_t sink = 0;
    BlockAddr next = 0;
    for (auto _ : state) {
        const BlockAddr b = next++;
        MshrEntry &e = mshrs.allocate(b, false, 0);
        for (int w = 0; w < 2; ++w)
            e.waiters.push_back([&sink](Cycle c) { sink += c; });
        benchmark::DoNotOptimize(mshrs.find(b));
        mshrs.deallocate(b);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MshrMergeWaiter);

void
BM_PollutionFilter(benchmark::State &state)
{
    PollutionFilter filter;
    Rng rng(3);
    for (auto _ : state) {
        const BlockAddr b = rng.next() & 0xFFFFFF;
        filter.onDemandBlockEvictedByPrefetch(b);
        benchmark::DoNotOptimize(filter.demandMissCausedByPrefetcher(b));
    }
}
BENCHMARK(BM_PollutionFilter);

void
BM_StreamPrefetcherObserve(benchmark::State &state)
{
    StreamPrefetcher pf;
    pf.setAggressiveness(static_cast<unsigned>(state.range(0)));
    std::vector<BlockAddr> out;
    BlockAddr block = 1 << 20;
    for (auto _ : state) {
        out.clear();
        pf.observe({blockBase(block), block, 0x10, true}, out);
        benchmark::DoNotOptimize(out.size());
        ++block;
    }
}
BENCHMARK(BM_StreamPrefetcherObserve)->Arg(1)->Arg(5);

void
BM_StreamFsmTransition(benchmark::State &state)
{
    // The training half of the stream FSM: a fresh region every third
    // access keeps the prefetcher allocating and confirming entries
    // instead of riding one steady monitored stream.
    StreamPrefetcher pf;
    pf.setAggressiveness(3);
    std::vector<BlockAddr> out;
    BlockAddr region = 1 << 22;
    BlockAddr block = region;
    int step = 0;
    for (auto _ : state) {
        out.clear();
        pf.observe({blockBase(block), block, 0x20, true}, out);
        benchmark::DoNotOptimize(out.size());
        if (++step == 3) {
            step = 0;
            region += 4096;
            block = region;
        } else {
            ++block;
        }
    }
}
BENCHMARK(BM_StreamFsmTransition);

void
BM_StreamAllocateChurn(benchmark::State &state)
{
    // Art's miss path: scattered misses that match no stream, so every
    // one falls through the training lookup and evicts the LRU entry of
    // a full 64-entry table.
    StreamPrefetcher pf;
    Rng rng(7);
    std::vector<BlockAddr> blocks(4096);
    for (BlockAddr &b : blocks)
        b = rng.range(std::uint64_t{1} << 30) * 64;  // windows never meet
    std::vector<BlockAddr> out;
    std::size_t i = 0;
    for (auto _ : state) {
        out.clear();
        const BlockAddr b = blocks[i++ % blocks.size()];
        pf.observe({blockBase(b), b, 0x30, true}, out);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(BM_StreamAllocateChurn);

void
BM_GhbPrefetcherObserve(benchmark::State &state)
{
    GhbPrefetcher pf;
    pf.setAggressiveness(3);
    std::vector<BlockAddr> out;
    BlockAddr block = 1 << 20;
    for (auto _ : state) {
        out.clear();
        pf.observe({blockBase(block), block, 0x10, true}, out);
        benchmark::DoNotOptimize(out.size());
        block += 2;
    }
}
BENCHMARK(BM_GhbPrefetcherObserve);

void
BM_WorkloadNext(benchmark::State &state)
{
    SyntheticWorkload wl(benchmarkParams("parser"));
    for (auto _ : state)
        benchmark::DoNotOptimize(wl.next().addr);
}
BENCHMARK(BM_WorkloadNext);

void
BM_StatScalarIncrement(benchmark::State &state)
{
    // The per-op accounting pattern the hot path uses: every event bumps
    // a registered ScalarStat, which reads its counter live.
    StatGroup stats("mem");
    ScalarStat demand(stats, "demand_accesses", "demand accesses");
    ScalarStat hits(stats, "l2_hits", "L2 hits");
    ScalarStat misses(stats, "l2_misses", "L2 misses");
    unsigned sel = 0;
    for (auto _ : state) {
        ++demand;
        if (sel++ & 1)
            ++hits;
        else
            ++misses;
        benchmark::DoNotOptimize(demand.value());
    }
}
BENCHMARK(BM_StatScalarIncrement);

void
BM_StatBatchedIncrement(benchmark::State &state)
{
    // Plain local counters flushed into the registered stats in
    // batches. The hot path keeps no such copy; this case prices a live
    // statistic against a plain integer.
    StatGroup stats("mem");
    ScalarStat demand(stats, "demand_accesses", "demand accesses");
    ScalarStat hits(stats, "l2_hits", "L2 hits");
    ScalarStat misses(stats, "l2_misses", "L2 misses");
    std::uint64_t d = 0, h = 0, m = 0;
    unsigned sel = 0, pending = 0;
    for (auto _ : state) {
        ++d;
        if (sel++ & 1)
            ++h;
        else
            ++m;
        if (++pending == 1024) {
            demand += d;
            hits += h;
            misses += m;
            d = h = m = 0;
            pending = 0;
        }
        benchmark::DoNotOptimize(d);
    }
    demand += d;
    hits += h;
    misses += m;
    benchmark::DoNotOptimize(demand.value());
}
BENCHMARK(BM_StatBatchedIncrement);

void
BM_FdpControllerDemandMiss(benchmark::State &state)
{
    StatGroup stats("fdp");
    FdpParams params;
    FdpController fdp(params, nullptr, stats);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(fdp.onDemandMiss(rng.next() & 0xFFFFFF));
}
BENCHMARK(BM_FdpControllerDemandMiss);

void
BM_VldpObserve(benchmark::State &state)
{
    VldpPrefetcher pf;
    pf.setAggressiveness(3);
    std::vector<BlockAddr> out;
    // Walk a repeating delta cycle across many pages: steady-state DHB
    // hits with DPT training plus the chained multi-degree predict.
    static constexpr unsigned kDeltas[3] = {1, 3, 2};
    Addr page = 0x5000;
    unsigned offset = 1, phase = 0;
    for (auto _ : state) {
        out.clear();
        const Addr a = (page << 12) + (Addr{offset} << kBlockShift);
        pf.observe({a, blockAddr(a), 0x14000, true}, out);
        benchmark::DoNotOptimize(out.size());
        offset += kDeltas[phase];
        phase = (phase + 1) % 3;
        if (offset >= 64) {
            offset = 1;
            ++page;
        }
    }
}
BENCHMARK(BM_VldpObserve);

void
BM_DspatchObserve(benchmark::State &state)
{
    DspatchPrefetcher pf;
    pf.setAggressiveness(3);
    std::vector<BlockAddr> out;
    // Dense region sweep under one PC: every region retirement trains
    // the SPT and every first touch replays a learned pattern.
    Addr block = 1 << 22;
    for (auto _ : state) {
        out.clear();
        pf.observe({blockBase(block), block, 0x20, true}, out);
        benchmark::DoNotOptimize(out.size());
        block += 2;
    }
}
BENCHMARK(BM_DspatchObserve);

void
BM_ManagerIntervalTick(benchmark::State &state)
{
    RunConfig config = RunConfig::fullFdp();
    config.manager = ManagerKind::Explore;
    auto pf = makeRunPrefetcher(config);  // manager over the full zoo
    std::uint64_t retired = 0, cycle = 0;
    double ipc = 0.9;
    for (auto _ : state) {
        retired += static_cast<std::uint64_t>(ipc * 10000);
        cycle += 10000;
        // Drift the signal so elections and collapses both happen.
        ipc = ipc > 1.4 ? 0.6 : ipc + 0.07;
        static_cast<ManagedPrefetcher &>(*pf).intervalTick(
            {0.5, 0.1, 0.05, retired, cycle});
        benchmark::DoNotOptimize(pf->aggressiveness());
    }
}
BENCHMARK(BM_ManagerIntervalTick);

void
BM_DramSchedulePick(benchmark::State &state)
{
    // Steady-state FR-FCFS scheduling over a populated queue with the
    // full comparator engaged: FDP tiers, weighted service, QoS caps.
    EventQueue events;
    StatGroup stats{"dram"};
    DramCtrlParams ctrl;
    ctrl.kind = DramKind::Controller;
    ctrl.channels = 2;
    ctrl.qosWeighted = true;
    DramController dram(DramParams{}, ctrl, events, stats, 4);
    static constexpr PrefetchTier kTiers[3] = {PrefetchTier::High,
                                               PrefetchTier::Medium,
                                               PrefetchTier::Low};
    std::uint64_t i = 0;
    for (auto _ : state) {
        const BusPriority prio =
            i % 3 == 0 ? BusPriority::Demand : BusPriority::Prefetch;
        dram.enqueue((i * 37) % (1 << 20), prio, events.horizon(),
                     [](Cycle) {}, CoreId(i % 4), kTiers[i % 3]);
        // Keep ~16 requests resident so every grant scans a real queue.
        if (++i % 16 == 0)
            events.serviceUntil(events.horizon() + 4000);
        benchmark::DoNotOptimize(dram.queued());
    }
}
BENCHMARK(BM_DramSchedulePick);

void
BM_DramSchedulePickDeep(benchmark::State &state)
{
    // The saturated mix8-ctrl shape: 8 cores streaming through 2
    // channels with FDP tiers on and QoS off, each channel holding ~120
    // queued reads, so every grant picks from a deep queue.
    EventQueue events;
    StatGroup stats{"dram"};
    DramCtrlParams ctrl;
    ctrl.kind = DramKind::Controller;
    ctrl.channels = 2;
    const DramParams params;
    DramController dram(params, ctrl, events, stats, 8);
    static constexpr PrefetchTier kTiers[3] = {PrefetchTier::High,
                                               PrefetchTier::Medium,
                                               PrefetchTier::Low};
    // Reads per channel not yet filled: an upper bound on its queue
    // depth (granted reads stay counted until their fill fires), kept
    // below the capacity a demand must never reach.
    std::array<std::size_t, 2> resident{};
    std::array<BlockAddr, 8> next{};
    for (unsigned c = 0; c < 8; ++c)
        next[c] = BlockAddr{c} << 24;
    std::uint64_t i = 0;
    const auto enqueueOne = [&] {
        const unsigned core = static_cast<unsigned>(i % 8);
        const BlockAddr block = next[core];
        const unsigned ch = dram.channelOf(block);
        while (resident[ch] >= params.queueCapacity - 1)
            events.serviceUntil(events.horizon() + params.transferCycles());
        const BusPriority prio =
            i % 3 == 0 ? BusPriority::Demand : BusPriority::Prefetch;
        if (dram.enqueue(block, prio, events.horizon(),
                         [&resident, ch](Cycle) { --resident[ch]; },
                         CoreId(core), kTiers[(i / 3) % 3]))
            ++resident[ch];
        ++next[core];
        ++i;
    };
    while (resident[0] + resident[1] < 2 * (params.queueCapacity - 8))
        enqueueOne();
    for (auto _ : state) {
        enqueueOne();
        benchmark::DoNotOptimize(dram.queued());
    }
}
BENCHMARK(BM_DramSchedulePickDeep);

void
BM_DramBankTick(benchmark::State &state)
{
    // Single-channel bank/row bookkeeping: a same-row walk, so every
    // grant takes the row-hit path (activate bookkeeping amortized at
    // row boundaries) and the per-access cost is the bank timing tick.
    EventQueue events;
    StatGroup stats{"dram"};
    DramCtrlParams ctrl;
    ctrl.kind = DramKind::Controller;
    ctrl.channels = 1;
    DramController dram(DramParams{}, ctrl, events, stats);
    BlockAddr block = 0;
    for (auto _ : state) {
        dram.enqueue(block++, BusPriority::Demand, events.horizon(),
                     [](Cycle) {});
        events.serviceUntil(events.horizon() + 200);
        benchmark::DoNotOptimize(dram.busAccesses());
    }
}
BENCHMARK(BM_DramBankTick);

} // namespace

BENCHMARK_MAIN();
