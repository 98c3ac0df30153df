/**
 * @file
 * The DRAM backend seam: the parameter structs, the request priority /
 * accuracy-tier vocabulary, and the DramBackend base the memory system
 * talks to (DESIGN.md §18).
 *
 * Two implementations exist:
 *  - the flat model of paper Table 3 (mem/dram.hh, the default
 *    baseline): one data bus over banked open rows, fed by three
 *    priority FIFOs, and
 *  - the FR-FCFS multi-channel controller (dram/dram_controller.hh,
 *    opt-in via DramKind::Controller) that adds per-bank queues,
 *    row-policy knobs, accuracy-directed prefetch priority, and
 *    per-core bandwidth QoS.
 *
 * Both grant through the base: DramBackend owns the bus statistics,
 * the per-core bus attribution and grant(), the bank and bus timing of
 * one transfer. A backend keeps only its queues and its pick.
 *
 * This layer knows nothing above sim/: the memory system picks an
 * implementation, the FDP controller supplies the PrefetchTier.
 */

#ifndef FDP_DRAM_DRAM_BACKEND_HH
#define FDP_DRAM_DRAM_BACKEND_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace fdp
{

/** DRAM timing/geometry parameters (paper Table 3). */
struct DramParams
{
    unsigned banks = 32;
    /** Blocks per DRAM row (128 x 64B = 8KB rows). */
    unsigned rowBlocks = 128;
    /** Bank access phase, row-buffer hit (cycles). */
    Cycle accessRowHit = 150;
    /** Bank access phase, row conflict (cycles). */
    Cycle accessRowConflict = 250;
    /** Open-row command cadence: bank busy per pipelined row hit. */
    Cycle casToCASCycles = 8;
    /** Data-bus bandwidth (4.5 GB/s at 4 GHz = 1.125 B/cycle). */
    double busBytesPerCycle = 1.125;
    /** Fixed fill/return overhead after the transfer (cycles). */
    Cycle returnCycles = 193;
    /** Capacity of a bus-request queue (per channel, for controllers). */
    std::size_t queueCapacity = 128;
    /** Writebacks get demand priority beyond this backlog. */
    std::size_t writebackHighWater = 64;

    /** Cycles one block occupies the data bus. */
    Cycle transferCycles() const;

    /** Unloaded row-conflict latency (the paper's "minimum" 500). */
    Cycle unloadedLatency() const;

    /** Bank access phase with the bank precharged but no row open
     *  (activate without the preceding precharge of a conflict). */
    Cycle accessRowEmpty() const
    {
        return (accessRowHit + accessRowConflict) / 2;
    }

    /**
     * Derive a parameter set whose unloaded row-conflict latency is
     * @p total cycles (used by the Table 7 sensitivity sweep).
     */
    static DramParams withUnloadedLatency(Cycle total);
};

/** Priority of a bus request. */
enum class BusPriority : std::uint8_t { Demand, Prefetch, Writeback };

/**
 * Paper Table 2 accuracy class of the interval a prefetch was issued
 * in. The FR-FCFS controller schedules by it: High may compete with
 * demands for row hits, Medium runs behind all demands, Low runs last
 * and is droppable under queue pressure. The flat model ignores it.
 */
enum class PrefetchTier : std::uint8_t { High, Medium, Low };

/** Which DRAM backend a machine instantiates. */
enum class DramKind : std::uint8_t { Flat, Controller };

/** Row-buffer management policy of the controller. */
enum class RowPolicy : std::uint8_t { Open, Closed, Adaptive };

/** Memory-controller configuration (ignored under DramKind::Flat). */
struct DramCtrlParams
{
    DramKind kind = DramKind::Flat;
    /** Independent channels, each with its own banks, queues, and data
     *  bus. Must be a power of two dividing DramParams::rowBlocks. */
    unsigned channels = 2;
    RowPolicy rowPolicy = RowPolicy::Open;
    /** Accuracy-directed prefetch priority (the FDP tie-in). Off =
     *  accuracy-blind FR-FCFS: demands and prefetches are one class. */
    bool fdpPriority = true;
    /** Drop Low-tier prefetches once their channel's read queue holds
     *  this many requests (0 = never drop by tier). */
    std::size_t lowTierDropAt = 16;
    /** QoS: per-core cap on queued prefetches per channel (0 = off). */
    unsigned qosInFlightCap = 0;
    /** QoS: least-served-core-first tie-breaking among equal-priority
     *  scheduling candidates (weighted service). */
    bool qosWeighted = false;
};

/**
 * DRAM + memory-bus engine. The base owns what every backend shares:
 * the bus statistics (registered under the shared memory StatGroup
 * with one set of names, so result extraction is backend-agnostic),
 * the per-core bus attribution and its conservation audit, and
 * grant(), one transfer on one channel's banks and data bus. A backend
 * supplies its queues and its pick, and honors the repo contracts:
 * audited invariants, quiesce-point snapshots, and bit-identical
 * determinism.
 */
class DramBackend : public Auditable, public Snapshottable
{
  public:
    using DoneFn = fdp::DoneFn;

    ~DramBackend() override = default;

    /**
     * Enqueue a block request on behalf of @p core. Returns false (and
     * drops the request) only for prefetches the backend refuses: a
     * full queue, a Low-tier drop under pressure, or a QoS cap. @p done
     * is invoked with the cycle at which the fill reaches the L2; pass
     * nullptr for writebacks. @p tier is the issuing core's FDP
     * accuracy class at issue time (meaningful for prefetches only).
     */
    virtual bool enqueue(BlockAddr block, BusPriority prio, Cycle now,
                         DoneFn done, CoreId core = kCore0,
                         PrefetchTier tier = PrefetchTier::High) = 0;

    /**
     * Promote a still-queued prefetch for @p block to demand priority
     * (a demand merged with it in the MSHR). No-op if already granted.
     */
    virtual void promoteToDemand(BlockAddr block) = 0;

    /** Requests currently waiting (all priorities, all channels). */
    virtual std::size_t queued() const = 0;

    /// @name Lifetime statistics
    /// @{
    std::uint64_t busAccesses() const { return count(kBusAccesses); }
    /** Measured data-bus occupancy, summed over every channel. */
    virtual std::uint64_t busBusyCycles() const
    {
        return count(kBusBusyCycles);
    }
    std::uint64_t rowHits() const { return count(kRowHits); }
    std::uint64_t rowConflicts() const { return count(kRowConflicts); }
    /** Bus grants at @p prio (a promoted prefetch is granted as a
     *  demand). */
    std::uint64_t grants(BusPriority prio) const;

    /** Blocks transferred on the bus on behalf of @p core. */
    std::uint64_t busAccessesByCore(CoreId core) const;
    /// @}

    /**
     * Zero the per-core attribution counters (and any other raw
     * counters audited against registered statistics) alongside a
     * StatGroup reset at a measurement boundary.
     */
    virtual void resetAttribution();

    /** Independent data buses: busBusyCycles() can reach
     *  dataBuses() * elapsed, so utilization windows normalize by it. */
    virtual unsigned dataBuses() const = 0;

    const DramParams &params() const { return params_; }

    /** The per-core bus accesses sum exactly to the shared total.
     *  Every backend's audit runs this first. */
    void audit() const override;

  protected:
    /** The bus statistics, in registration order (the order of the
     *  scalars in a stats snapshot). */
    enum Counter : std::uint8_t
    {
        kBusAccesses,
        kDemandGrants,
        kPrefetchGrants,
        kWritebackGrants,
        kRowHits,
        kRowConflicts,
        kRowEmpties,
        kBusBusyCycles,
        kPromotions,
        kLowTierDrops,
        kQosRejects,
        kNumCounters
    };

    /** An open-row register holding no row (precharged bank). */
    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

    /** One channel's banks and data bus: the state grant() advances. */
    struct Bus
    {
        std::vector<Cycle> bankReady;
        std::vector<std::uint64_t> openRow;
        Cycle busFree = 0;
    };

    /**
     * Register @p kind's bus statistics under @p stats: the flat model
     * counts no empty rows, tier drops or QoS rejects. A grant leaves
     * its row open, closed or adaptively precharged by @p rowPolicy;
     * only the controller has empty (precharged) rows to find, so the
     * flat model's precharged bank costs, and counts as, a conflict.
     *
     * @param numCores  cores that may issue bus requests; per-core bus
     *                  accesses are tallied against this many counters
     */
    DramBackend(const DramParams &params, DramKind kind,
                RowPolicy rowPolicy, EventQueue &events, StatGroup &stats,
                unsigned numCores);

    /** A bus whose banks are all precharged and idle. */
    Bus idleBus() const;

    /**
     * Grant one transfer on @p bus: the access phase starts when
     * @p bank is free. An open-row hit pipelines at the CAS cadence; an
     * activate holds the bank until its transfer ends. The data then
     * serializes on the bus. Counts the row outcome and @p prio,
     * charges @p core, and schedules @p done (if any) at the fill.
     */
    void grant(Bus &bus, unsigned bank, std::uint64_t row, Cycle enqueued,
               BusPriority prio, CoreId core, DoneFn &&done);

    /** Value of a counter; 0 for one this backend does not register. */
    std::uint64_t
    count(Counter k) const
    {
        return stats_[k] ? stats_[k]->value() : 0;
    }
    ScalarStat &stat(Counter k) { return *stats_[k]; }

    unsigned
    numCores() const
    {
        return static_cast<unsigned>(coreBusAccesses_.size());
    }

    /** The attribution's snapshot fields: the core count, then each
     *  core's bus accesses. */
    template <typename Self, typename Io>
    static void attributionFields(Self &self, Io &io);

    DramParams params_;
    EventQueue &events_;
    Cycle transferCycles_;

  private:
    friend struct AuditCorrupter;

    /** The grant counter of @p prio. */
    static Counter grantCounter(BusPriority prio);

    RowPolicy rowPolicy_;
    bool emptyRows_;
    /** Bus accesses attributed to each requesting core. */
    std::vector<std::uint64_t> coreBusAccesses_;
    std::array<std::optional<ScalarStat>, kNumCounters> stats_;
};

template <typename Self, typename Io>
void
DramBackend::attributionFields(Self &self, Io &io)
{
    io.fixedU32(self.coreBusAccesses_.size(), "cores");
    for (auto &n : self.coreBusAccesses_)
        io.u64(n);
}

} // namespace fdp

#endif // FDP_DRAM_DRAM_BACKEND_HH
