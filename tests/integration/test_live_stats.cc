/**
 * @file
 * Live statistics: every registered statistic reads the counter its
 * component increments, so a reader of the stat groups sees exact
 * counts at any time, with no publish step. Both machines are
 * assembled from the public API with no harness, the way
 * examples/quickstart.cpp builds one, and every registered statistic
 * (mem, c<i>, core, fdp) is read by name and checked against its
 * accessor or, where none exists, against the counts it must agree
 * with.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/fdp_controller.hh"
#include "cpu/ooo_core.hh"
#include "mc/workload_mix.hh"
#include "mem/memory_system.hh"
#include "prefetch/stream_prefetcher.hh"
#include "sim/event_queue.hh"
#include "snap/machine_snapshot.hh"
#include "workload/spec_suite.hh"

namespace fdp
{
namespace
{

/** Forwards a workload and tallies the loads and stores it hands out. */
class CountingWorkload : public Workload
{
  public:
    explicit CountingWorkload(std::unique_ptr<Workload> inner)
        : inner_(std::move(inner))
    {
    }

    MicroOp
    next() override
    {
        const MicroOp op = inner_->next();
        loads += op.kind == OpKind::Load;
        stores += op.kind == OpKind::Store;
        return op;
    }

    void reset() override { inner_->reset(); }
    const char *name() const override { return inner_->name(); }

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

  private:
    std::unique_ptr<Workload> inner_;
};

/** Reads one group's statistics by name and remembers which it read. */
class StatReader
{
  public:
    explicit StatReader(const StatGroup &group) : group_(group) {}

    std::uint64_t
    operator()(const std::string &name)
    {
        read_.insert(name);
        for (const ScalarStat *s : group_.scalars())
            if (s->name() == name)
                return s->value();
        ADD_FAILURE() << group_.name() << " registers no " << name;
        return 0;
    }

    /** Every statistic the group registers was read. */
    void
    expectAllRead() const
    {
        for (const ScalarStat *s : group_.scalars())
            EXPECT_EQ(read_.count(s->name()), 1u)
                << group_.name() << '.' << s->name() << " went unchecked";
    }

  private:
    const StatGroup &group_;
    std::set<std::string> read_;
};

/** The machine-wide statistics of @p mem, registered in @p stats. */
void
expectMachineTotals(const StatGroup &stats, const MemorySystem &mem,
                    const std::vector<const FdpController *> &fdps)
{
    SCOPED_TRACE(stats.name());
    StatReader stat(stats);
    const DramBackend &dram = mem.dram();
    EXPECT_EQ(stat("bus_accesses"), dram.busAccesses());
    EXPECT_EQ(stat("demand_grants"), dram.grants(BusPriority::Demand));
    EXPECT_EQ(stat("prefetch_grants"), dram.grants(BusPriority::Prefetch));
    EXPECT_EQ(stat("writeback_grants"),
              dram.grants(BusPriority::Writeback));
    EXPECT_EQ(stat("row_hits"), dram.rowHits());
    EXPECT_EQ(stat("row_conflicts"), dram.rowConflicts());
    EXPECT_EQ(stat("bus_busy_cycles"), dram.busBusyCycles());

    EXPECT_GT(mem.demandAccesses(), 0u);
    EXPECT_GT(mem.l2Misses(), 0u);
    EXPECT_EQ(stat("demand_accesses"), mem.demandAccesses());
    EXPECT_EQ(stat("l2_misses"), mem.l2Misses());
    EXPECT_EQ(stat("mshr_stalls"), mem.mshrStalls());
    EXPECT_EQ(stat("pref_issued"), mem.prefetchesIssued());
    EXPECT_EQ(stat("pcache_hits"), mem.prefetchCacheHits());
    EXPECT_DOUBLE_EQ(
        ratio(static_cast<double>(stat("demand_miss_cycles")),
              static_cast<double>(stat("demand_miss_fills"))),
        mem.avgDemandMissLatency());

    // Every demand hits the L1 or misses it; every L1 miss hits the L2
    // or the prefetch cache, or misses both.
    EXPECT_EQ(stat("l1_hits") + stat("l1_misses"), mem.demandAccesses());
    EXPECT_EQ(stat("l2_hits") + stat("pcache_hits") + stat("l2_misses"),
              stat("l1_misses"));
    // Quiesced: every writeback has been granted the bus, and every
    // prefetch candidate was dropped on one of three grounds or sent.
    std::uint64_t sent = 0;
    for (const FdpController *f : fdps)
        sent += f->prefSent();
    EXPECT_EQ(stat("writebacks"), dram.grants(BusPriority::Writeback));
    EXPECT_EQ(stat("pref_drop_queue_full") + stat("pref_drop_l2hit") +
                  stat("pref_drop_inflight") + sent,
              mem.prefetchesIssued());
    // art's late prefetches merge demands into in-flight prefetch
    // MSHRs and promote the queued ones.
    EXPECT_GT(stat("mshr_merges"), 0u);
    EXPECT_GT(stat("promotions"), 0u);
    EXPECT_LE(stat("promotions"), stat("mshr_merges"));
    stat.expectAllRead();
}

/** @p core's statistics, read through @p stat; @p workload tallied
 *  the ops it fed the core. */
void
expectCoreStats(StatReader &stat, const OooCore &core,
                const CountingWorkload &workload)
{
    EXPECT_GT(core.retired(), 0u);
    EXPECT_EQ(stat("retired"), core.retired());
    EXPECT_EQ(stat("cycles"), core.cycles());
    EXPECT_EQ(stat("loads"), workload.loads);
    EXPECT_EQ(stat("stores"), workload.stores);
    EXPECT_GT(stat("rob_full_cycles"), 0u);
    EXPECT_LE(stat("rob_full_cycles"), core.cycles());
}

/** @p fdp's statistics, read through @p stat, against the memory
 *  side's L2 demand misses. */
void
expectControllerStats(StatReader &stat, const FdpController &fdp,
                      std::uint64_t l2Misses)
{
    EXPECT_EQ(stat("pref_sent"), fdp.prefSent());
    EXPECT_EQ(stat("pref_used"), fdp.prefUsed());
    EXPECT_EQ(stat("intervals"), fdp.intervalsCompleted());
    EXPECT_EQ(stat("demand_misses"), l2Misses);
    EXPECT_LE(stat("pref_late"), stat("pref_used"));
    EXPECT_LE(stat("pollution_misses"), stat("demand_misses"));
}

TEST(LiveStats, OneCoreMachineReadsEveryStatisticWithoutAPublishStep)
{
    EventQueue events;
    StreamPrefetcher prefetcher(StreamPrefetcherParams{});
    StatGroup fdpStats("fdp");
    FdpController fdp(FdpParams{}, &prefetcher, fdpStats);
    StatGroup memStats("mem");
    MemorySystem mem(MachineParams{}, events, &prefetcher, fdp, memStats);
    StatGroup coreStats("core");
    CountingWorkload workload(makeBenchmark("art"));
    OooCore core(CoreParams{}, mem, events, workload, coreStats);

    core.run(200'000);
    drainToQuiesce(events, mem);

    expectMachineTotals(memStats, mem, {&fdp});
    // All of a one-core machine is core 0's.
    StatReader memStat(memStats);
    EXPECT_EQ(mem.demandAccesses(kCore0), mem.demandAccesses());
    EXPECT_EQ(mem.l2Misses(kCore0), mem.l2Misses());
    EXPECT_EQ(memStat("pref_drop_queue_full"), mem.prefDropQueueFull(kCore0));

    StatReader coreStat(coreStats);
    expectCoreStats(coreStat, core, workload);
    coreStat.expectAllRead();
    StatReader fdpStat(fdpStats);
    expectControllerStats(fdpStat, fdp, mem.l2Misses());
    fdpStat.expectAllRead();
}

TEST(LiveStats, TwoCoreMachineReadsEveryStatisticWithoutAPublishStep)
{
    // The co-run layout: mem holds the machine totals, c<i> holds core
    // i's controller, memory-side share and core statistics.
    MixSpec spec;
    spec.name = "art-swim";
    spec.entries = {MixEntry{"art", ""}, MixEntry{"swim", ""}};
    std::vector<std::unique_ptr<Workload>> programs =
        buildMixWorkloads(spec);

    EventQueue events;
    StatGroup memStats("mem");
    std::deque<StatGroup> groups;
    std::deque<StreamPrefetcher> prefetchers;
    std::deque<FdpController> fdps;
    std::vector<Prefetcher *> pfPtrs;
    std::vector<FdpController *> fdpPtrs;
    std::vector<StatGroup *> groupPtrs;
    for (unsigned i = 0; i < 2; ++i) {
        groups.emplace_back("c" + std::to_string(i));
        prefetchers.emplace_back(StreamPrefetcherParams{});
        FdpParams fp;
        fp.label = "fdp_controller.c" + std::to_string(i);
        fdps.emplace_back(fp, &prefetchers.back(), groups.back());
        pfPtrs.push_back(&prefetchers.back());
        fdpPtrs.push_back(&fdps.back());
        groupPtrs.push_back(&groups.back());
    }
    MemorySystem mem(MachineParams{}, events, pfPtrs, fdpPtrs, memStats,
                     groupPtrs);
    std::deque<CountingWorkload> workloads;
    std::deque<OooCore> cores;
    for (unsigned i = 0; i < 2; ++i) {
        workloads.emplace_back(std::move(programs[i]));
        cores.emplace_back(CoreParams{}, mem.port(CoreId(i)), events,
                           workloads.back(), groups[i]);
    }

    runLockstep(events, {&cores[0], &cores[1]}, 100'000);
    drainToQuiesce(events, mem);

    expectMachineTotals(memStats, mem, {&fdps[0], &fdps[1]});
    StatReader total(memStats);
    StatReader c0(groups[0]);
    StatReader c1(groups[1]);
    // Each core's share of every counter with a machine total but no
    // per-core accessor.
    for (const char *name :
         {"l1_hits", "l1_misses", "l2_hits", "mshr_merges", "mshr_stalls",
          "pref_issued", "pref_drop_l2hit", "pref_drop_inflight",
          "writebacks", "demand_miss_fills", "demand_miss_cycles"})
        EXPECT_EQ(c0(name) + c1(name), total(name)) << name;
    std::uint64_t evictions = 0;
    for (unsigned i = 0; i < 2; ++i) {
        SCOPED_TRACE(groups[i].name());
        const CoreId c(i);
        StatReader &stat = i == 0 ? c0 : c1;
        EXPECT_GT(mem.demandAccesses(c), 0u);
        EXPECT_EQ(stat("demand_accesses"), mem.demandAccesses(c));
        EXPECT_EQ(stat("l2_misses"), mem.l2Misses(c));
        EXPECT_EQ(stat("pref_drop_queue_full"), mem.prefDropQueueFull(c));
        EXPECT_EQ(stat("pollution_inflicted"), mem.pollutionInflicted(c));
        EXPECT_EQ(stat("cross_pollution_suffered"),
                  mem.crossPollutionSuffered(c));
        evictions += stat("l2_evictions_caused");
        expectCoreStats(stat, cores[i], workloads[i]);
        expectControllerStats(stat, fdps[i], mem.l2Misses(c));
        stat.expectAllRead();
    }
    // Every shared-L2 eviction ticks both controllers' intervals.
    EXPECT_EQ(fdps[0].intervalsCompleted(),
              evictions / FdpParams{}.intervalEvictions);
    mem.audit();
}

} // namespace
} // namespace fdp
