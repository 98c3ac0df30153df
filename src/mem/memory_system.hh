/**
 * @file
 * The full memory hierarchy of paper Table 3 for 1 to N cores (DESIGN.md
 * §13): a private L1D and Prefetch Request Queue per core over ONE L2,
 * ONE MSHR file, and ONE DRAM backend, with each core's L2-side
 * prefetcher and FDP controller and every FDP bookkeeping hook.
 *
 * Responsibilities:
 *  - demand path: L1 lookup, L2 lookup, MSHR allocate/merge, DRAM access,
 *    fill into L2 (at the FDP-selected stack position for prefetches) and
 *    into L1 (for demands);
 *  - prefetch path: run the core's prefetcher on every demand L2 access,
 *    filter candidates against L2 contents / prefetch cache / MSHRs /
 *    queue capacity, issue survivors at prefetch (lowest) priority;
 *  - late-prefetch detection: a demand that merges with an in-flight
 *    prefetch MSHR promotes it to demand priority and reports it late;
 *  - pollution bookkeeping: demand-fetched victims of prefetch fills set
 *    the pollution filter, prefetch fills clear it, demand misses test it;
 *  - optional prefetch cache (Section 5.7, one core only): prefetch fills
 *    bypass the L2.
 *
 * Every request is tagged by its CoreId so the shared structures
 * attribute costs to cores:
 *  - L2 lines carry the installing core; pollution is charged to the
 *    prefetching core and reported to the victim line's owner core;
 *  - MSHR entries carry the allocating core; a demand that merges into
 *    another core's in-flight prefetch retags the entry to the
 *    demanding core (the late-prefetch credit stays with the issuer);
 *  - DRAM counts bus accesses per core (bandwidth share).
 *
 * Shared-L2 evictions tick EVERY controller's sampling interval, so all
 * cores' intervals stay synchronized (an audited invariant) and
 * end-of-interval audits see the whole machine at one cadence.
 */

#ifndef FDP_MEM_MEMORY_SYSTEM_HH
#define FDP_MEM_MEMORY_SYSTEM_HH

#include <array>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/fdp_controller.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memory_port.hh"
#include "mem/mshr.hh"
#include "mem/prefetch_cache.hh"
#include "prefetch/prefetcher.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace fdp
{

/** Paper Table 3 machine configuration (memory side). */
struct MachineParams
{
    CacheParams l1{"L1D", 64 * 1024, 4};
    Cycle l1Latency = 2;
    CacheParams l2{"L2", 1024 * 1024, 16};
    Cycle l2Latency = 10;
    std::size_t l2Mshrs = 128;
    /** MSHRs held back from prefetches so demands can always allocate. */
    std::size_t mshrDemandReserve = 16;
    /** Prefetch Request Queue capacity (paper Section 4.1: 128). */
    std::size_t prefetchQueueCap = 128;
    DramParams dram;
    /** DRAM backend selection + controller knobs (DramKind::Flat keeps
     *  the Table 3 flat bus model, the golden baseline). */
    DramCtrlParams dramCtrl;
    PrefetchCacheParams prefetchCache;
    bool modelWritebacks = true;
};

/** N private L1s + shared L2 + shared MSHRs + shared DRAM, with FDP. */
class MemorySystem : public Auditable, public MemoryPort, public Snapshottable
{
  public:
    using DoneFn = fdp::DoneFn;

    /**
     * One-core machine, also its own MemoryPort.
     *
     * @param params  machine configuration
     * @param events  shared event queue
     * @param pf      L2 prefetcher (nullptr disables prefetching)
     * @param fdp     feedback controller (always present; it observes
     *                even when its dynamic policies are disabled)
     * @param stats   group receiving memory-side statistics
     */
    MemorySystem(const MachineParams &params, EventQueue &events,
                 Prefetcher *pf, FdpController &fdp, StatGroup &stats);

    /**
     * N-core machine, one core per controller.
     *
     * @param params       machine configuration; the prefetch cache
     *                     needs a single core
     * @param events       shared event queue
     * @param prefetchers  one per core (entries may be null)
     * @param controllers  one per core, never null
     * @param sharedStats  group receiving the machine-wide totals (same
     *                     names as the one-core machine's group)
     * @param coreStats    one group per core for that core's share of
     *                     every counter, or empty for no breakdown
     */
    MemorySystem(const MachineParams &params, EventQueue &events,
                 const std::vector<Prefetcher *> &prefetchers,
                 const std::vector<FdpController *> &controllers,
                 StatGroup &sharedStats,
                 const std::vector<StatGroup *> &coreStats);

    /**
     * Demand load/store by @p core at cycle @p now. @p done fires with
     * the cycle the data is available (loads); stores invoke it too but
     * the core does not wait on them. Taken by rvalue reference so the
     * MemoryPort entry points forward their callback without a move.
     */
    void demandAccess(CoreId core, Addr addr, Addr pc, bool isWrite,
                      Cycle now, DoneFn &&done);

    /** Demand access by core 0 (the MemoryPort of a one-core machine). */
    void
    demandAccess(Addr addr, Addr pc, bool isWrite, Cycle now,
                 DoneFn done) override
    {
        demandAccess(kCore0, addr, pc, isWrite, now, std::move(done));
    }

    /** MemoryPort view binding @p core, for driving an OooCore. */
    MemoryPort &port(CoreId core);

    /** True when no misses are in flight and no requests are queued. */
    bool quiesced() const;

    /**
     * Attach (or detach, with nullptr) @p core's L2 prefetcher. Used by
     * the warm-up boundary: the warm-up phase runs with no prefetcher so
     * the warmed state is independent of the prefetch configuration.
     */
    void
    setPrefetcher(Prefetcher *pf, CoreId core = kCore0)
    {
        cores_[core.index()].prefetcher = pf;
    }

    /** Publish the locally batched counters into the stat groups. */
    void flushStats();

    /** Zero DRAM's per-core attribution (see DramBackend). */
    void resetAttribution() { dram_->resetAttribution(); }

    /** Data-bus utilization over the last closed measurement window,
     *  in [0, 1], measured from the backend's per-channel data-bus
     *  occupancy (PrefetchObservation::busUtil; DESIGN.md §17/18). One
     *  bus, so one window for all cores. */
    double busUtilization() const { return busUtil_; }

    /** Cycles per bus-utilization measurement window. */
    static constexpr Cycle kBusUtilWindow = 4096;

    const SetAssocCache &l2() const { return l2_; }
    DramBackend &dram() { return *dram_; }
    const DramBackend &dram() const { return *dram_; }

    /// @name Lifetime statistics
    /// Accessors fold in counts still sitting in the hot accumulators,
    /// so they are exact whether or not flushStats() has run.
    /// @{
    std::uint64_t demandAccesses() const { return total(kDemandAccesses); }
    std::uint64_t l2Misses() const { return total(kL2Misses); }
    std::uint64_t prefetchesIssued() const { return total(kPrefIssued); }
    std::uint64_t prefetchCacheHits() const { return total(kPcacheHits); }
    std::uint64_t mshrStalls() const { return total(kMshrStalls); }

    /** Average cycles from demand-miss MSHR allocation to fill. */
    double avgDemandMissLatency() const;
    /// @}

    /// @name Per-core lifetime statistics
    /// Read from the per-core stat groups; a one-core machine built
    /// without them returns its totals, since all of it is core 0's.
    /// Exact like the totals above. The two pollution counters exist
    /// only per core, so they panic on a machine without the groups.
    /// @{
    std::uint64_t
    demandAccesses(CoreId core) const
    {
        return count(core, kDemandAccesses);
    }
    std::uint64_t
    l2Misses(CoreId core) const
    {
        return count(core, kL2Misses);
    }
    std::uint64_t
    prefDropQueueFull(CoreId core) const
    {
        return count(core, kPrefDropQueueFull);
    }
    /** Demand blocks this core's prefetch fills evicted (any victim). */
    std::uint64_t
    pollutionInflicted(CoreId core) const
    {
        return count(core, kPollutionInflicted);
    }
    /** This core's demand blocks evicted by OTHER cores' prefetches. */
    std::uint64_t
    crossPollutionSuffered(CoreId core) const
    {
        return count(core, kCrossPollutionSuffered);
    }
    /// @}

    /**
     * Invariants: every Prefetch Request Queue within its capacity, the
     * demand-reserve configuration, core-id tags of queued demands
     * valid, every per-core counter column summing exactly to its
     * machine-wide total (stat-scoping conservation), all controllers'
     * sampling intervals synchronized, plus the structural audits of
     * the L1s, the L2, the MSHR file, the DRAM model, and the prefetch
     * cache when configured.
     */
    void audit() const override;
    const char *auditName() const override { return "memory_system"; }

    /**
     * Serialize the hierarchy: a "mem" marker section (asserting the
     * transient queues are empty, i.e. quiesced()), then each core's
     * L1, the L2, MSHR file, DRAM, and optional prefetch cache in fixed
     * order.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "mem"; }

  private:
    friend struct AuditCorrupter;

    /**
     * Per-core event counters, in stat registration order. The first
     * kNumTotals also have a machine-wide total; the per-core breakdown
     * leaves out the one-core prefetch cache.
     */
    enum Counter : std::uint8_t
    {
        kDemandAccesses,
        kL1Hits,
        kL1Misses,
        kL2Hits,
        kL2Misses,
        kMshrMerges,
        kMshrStalls,
        kPrefIssued,
        kPrefDropL2Hit,
        kPrefDropInFlight,
        kPrefDropQueueFull,
        kPcacheHits,
        kWritebacks,
        kDemandMissFills,
        kDemandMissCycles,
        kNumTotals,
        kL2EvictionsCaused = kNumTotals,
        kPollutionInflicted,
        kCrossPollutionSuffered,
        kNumCounters
    };
    using Counters = std::array<std::uint64_t, kNumCounters>;
    /** Registered statistics by Counter (null where not registered). */
    using CounterStats = std::array<std::unique_ptr<ScalarStat>, kNumCounters>;

    /** MemoryPort adapter binding one CoreId. */
    class Port : public MemoryPort
    {
      public:
        Port(MemorySystem &sys, CoreId core) : sys_(sys), core_(core) {}
        void
        demandAccess(Addr addr, Addr pc, bool isWrite, Cycle now,
                     DoneFn done) override
        {
            sys_.demandAccess(core_, addr, pc, isWrite, now,
                              std::move(done));
        }

      private:
        MemorySystem &sys_;
        CoreId core_;
    };

    struct PendingDemand
    {
        CoreId core;
        BlockAddr block;
        bool isWrite;
        DoneFn done;
    };

    /** One core's private structures and counters. */
    struct Core
    {
        Core(const CacheParams &l1Params, Prefetcher *pf,
             FdpController *ctrl)
            : l1(l1Params), prefetcher(pf), fdp(ctrl)
        {
        }

        SetAssocCache l1;
        Prefetcher *prefetcher;
        FdpController *fdp;
        std::deque<BlockAddr> prefetchQueue;  ///< Prefetch Request Queue
        /**
         * Counts since the last flushStats(), batched as plain integers
         * in one packed array (two or three cache lines touched per
         * demand instead of a spread of registered statistics). DRAM/bus
         * statistics are NOT batched: the DRAM model owns them and its
         * audit cross-checks them in place.
         */
        Counters hot{};
        /** This core's breakdown (all null without per-core groups). */
        CounterStats stats;
    };

    /** Machine-wide total of @p k, batched counts included. */
    std::uint64_t total(Counter k) const;
    /** @p core's share of @p k, batched counts included. */
    std::uint64_t count(CoreId core, Counter k) const;

    /** Run @p core's prefetcher on a demand L2 access, queue candidates. */
    void observeAndIssue(CoreId core, const PrefetchObservation &obs,
                         Cycle now);

    /** Close the bus-utilization window if @p now has moved past it. */
    void updateBusUtil(Cycle now);

    /**
     * Drain @p core's Prefetch Request Queue into the MSHRs / bus queue
     * as capacity allows (prefetches wait here rather than being lost).
     */
    void drainPrefetchQueue(CoreId core, Cycle now);

    /** Allocate the MSHR and send @p core's demand miss to DRAM. */
    void startDemandMiss(CoreId core, BlockAddr block, bool isWrite,
                         Cycle now, DoneFn &&done);

    /** Merge @p core's demand into the in-flight miss @p e. */
    void mergeDemand(CoreId core, MshrEntry &e, bool isWrite,
                     DoneFn &&done);

    /** DRAM fill arrived for @p block. */
    void onFill(BlockAddr block, Cycle fillCycle);

    /** Install @p by's fill in the L2, handling victim bookkeeping. */
    void insertL2Fill(CoreId by, BlockAddr block, bool prefBit, bool dirty,
                      Cycle now);

    /** Install a block in @p core's L1, handling dirty-victim writeback. */
    void fillL1(CoreId core, BlockAddr block, bool isWrite, Cycle now);

    /** Admit MSHR-stalled demands after a deallocation. */
    void admitPending(Cycle now);

    MachineParams params_;
    unsigned numCores_;
    std::vector<Core> cores_;
    std::deque<Port> ports_;

    SetAssocCache l2_;
    MshrFile mshrs_;
    std::unique_ptr<DramBackend> dram_;
    std::unique_ptr<PrefetchCache> pcache_;

    /// @name Bus-utilization window
    /// Recomputed from busBusyCycles() deltas every kBusUtilWindow
    /// cycles; a pure function of simulated time, so deterministic.
    /// @{
    double busUtil_ = 0.0;
    Cycle busWindowStart_ = 0;
    std::uint64_t busWindowBusy_ = 0;
    /// @}

    std::deque<PendingDemand> mshrWaitQ_;
    std::vector<BlockAddr> pfCandidates_;  ///< scratch, reused per access
    std::vector<DoneFn> fillWaiters_;      ///< scratch, reused per fill

    /** Machine-wide totals (the first kNumTotals counters). */
    CounterStats totals_;
};

} // namespace fdp

#endif // FDP_MEM_MEMORY_SYSTEM_HH
