/**
 * @file
 * FR-FCFS multi-channel memory controller (DESIGN.md §18).
 *
 * Replaces the flat three-deque bus model with a real controller:
 *  - XOR channel interleaving: consecutive blocks stripe across
 *    channels, and the row index is folded in so same-bank streams on
 *    one channel remap on the next, each channel owning its banks,
 *    request queues, and data bus;
 *  - FR-FCFS scheduling per channel: row-buffer hits first, oldest
 *    first within a class, with the flat model's writeback high-water
 *    starvation bound;
 *  - row-policy knobs: open (leave rows open), closed (auto-precharge
 *    after every access), adaptive (precharge after a conflict, stay
 *    open after hits);
 *  - the FDP tie-in: prefetches carry the issuing core's Table 2
 *    accuracy tier. High-accuracy prefetches are scheduled exactly
 *    like demands, Medium ones yield only their row-buffer misses to
 *    demand misses, and Low ones run strictly last and are dropped at
 *    enqueue once their channel queue is under pressure. With
 *    fdpPriority off the controller is accuracy-blind: demands and
 *    prefetches form a single FR-FCFS class (the baseline to beat);
 *  - per-core bandwidth QoS on top of CoreId attribution: an in-flight
 *    cap on queued prefetches per core, and optional weighted service
 *    (least-served core first among equal-priority candidates).
 */

#ifndef FDP_DRAM_DRAM_CONTROLLER_HH
#define FDP_DRAM_DRAM_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "dram/dram_backend.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace fdp
{

/** Event-driven FR-FCFS multi-channel DRAM controller. */
class DramController : public DramBackend
{
  public:
    /**
     * @param numCores  cores that may issue requests; attribution, QoS
     *                  caps, and weighted service track this many
     */
    DramController(const DramParams &params, const DramCtrlParams &ctrl,
                   EventQueue &events, StatGroup &stats,
                   unsigned numCores = 1);

    bool enqueue(BlockAddr block, BusPriority prio, Cycle now, DoneFn done,
                 CoreId core = kCore0,
                 PrefetchTier tier = PrefetchTier::High) override;
    void promoteToDemand(BlockAddr block) override;
    std::size_t queued() const override;

    std::uint64_t busAccesses() const override
    {
        return busAccesses_.value();
    }
    /** Sum of the per-channel measured data-bus occupancies (the
     *  registered statistic mirrors it; audited equal). */
    std::uint64_t busBusyCycles() const override;
    std::uint64_t rowHits() const override { return rowHits_.value(); }
    std::uint64_t rowConflicts() const override
    {
        return rowConflicts_.value();
    }
    std::uint64_t busAccessesByCore(CoreId core) const override;
    void resetAttribution() override;
    unsigned dataBuses() const override { return ctrl_.channels; }
    const DramParams &params() const override { return params_; }

    const DramCtrlParams &ctrlParams() const { return ctrl_; }

    /** Channel @p block is routed to (XOR interleaving); for tests. */
    unsigned channelOf(BlockAddr block) const;

    /** Measured data-bus occupancy of one channel, in cycles. */
    std::uint64_t busBusyCyclesOnChannel(unsigned ch) const;

    /// @name Controller-specific lifetime statistics
    /// @{
    std::uint64_t rowEmpties() const { return rowEmpties_.value(); }
    std::uint64_t lowTierDrops() const { return lowTierDrops_.value(); }
    std::uint64_t qosRejects() const { return qosRejects_.value(); }
    /// @}

    /**
     * Invariants: channel/bank state arrays match the configured
     * geometry; every read queue stays within capacity; each queued
     * request sits on the channel its block routes to, with a valid
     * core id and arrival sequence numbers strictly increasing in queue
     * order; each read key's cached bank/row match a fresh decode of
     * its block and its scheduling group is in range; each read key
     * owns a distinct slab slot holding a completion callback, and the
     * slab's free list names exactly the other slots; a pump event is
     * scheduled on every channel with queued work; the per-core bus
     * accesses sum to the shared total; the per-channel measured bus
     * occupancies sum to the registered statistic; and the per-core
     * queued-prefetch counters match a recount of the queues.
     */
    void audit() const override;
    const char *auditName() const override { return "dram_controller"; }

    /**
     * Snapshots are taken only at quiesce points: queued requests carry
     * completion closures, so saveState() asserts every queue is empty
     * and serializes the per-channel bank timing, open-row registers,
     * bus horizons and measured occupancies, plus the per-core
     * attribution and service counters. Derived state (arrival
     * sequencing, queued-prefetch counts, the callback slab) is rebuilt
     * on restore.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "dramctl"; }

  private:
    friend struct AuditCorrupter;

    /** An open-row register holding no row (precharged bank). */
    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};
    static constexpr std::size_t kNoPick = ~std::size_t{0};
    /** Read-queue depth the 16-bit slab slot numbers can address. */
    static constexpr std::size_t kMaxQueueCapacity = std::size_t{1} << 16;

    /**
     * Scheduling group of a queued read: its priority and, for a
     * prefetch, its accuracy tier. classOf_ maps (group, row hit) to the
     * FR-FCFS class, so the fdpPriority switch is folded in once at
     * construction instead of being re-tested on every scan step.
     */
    enum Group : std::uint8_t
    {
        kGroupDemand,
        kGroupHigh,
        kGroupMedium,
        kGroupLow,
        kNumGroups,
    };
    /** FR-FCFS class per [Group][row hit]; lower is scheduled first. */
    using ClassTable = std::array<std::array<std::uint8_t, 2>, kNumGroups>;

    /**
     * A queued read's scheduling key, decoded once at enqueue. The pick
     * scan reads only these 24 bytes; the completion callback and the
     * grant-time fields sit in the channel's slab at `slot`, so a grant
     * erases a small key instead of moving a closure-carrying request.
     */
    struct ReadKey
    {
        BlockAddr block = 0;   ///< matched by promoteToDemand
        std::uint64_t row = 0;
        std::uint32_t bank = 0;
        std::uint16_t slot = 0;
        CoreId core;
        std::uint8_t group = kGroupDemand;
    };
    static_assert(sizeof(ReadKey) == 24, "keep the scanned key compact");

    /** Slab entry: the parts of a queued read only its grant needs. */
    struct ReadSlot
    {
        DoneFn done;
        Cycle enqueueCycle = 0;
        /** Global arrival order (audited against the key order). */
        std::uint64_t seq = 0;
    };

    /** A queued writeback (FIFO, never scanned or promoted). */
    struct WbRequest
    {
        BlockAddr block = 0;
        Cycle enqueueCycle = 0;
        std::uint64_t seq = 0;
        CoreId core;
    };

    struct Channel
    {
        /** Queued reads (demands + prefetches) in arrival order, the
         *  FCFS age within every FR-FCFS class. */
        std::vector<ReadKey> readQ;
        /** Callback slab; readQ keys name their slot. Grows to the
         *  deepest read queue seen, then recycles through slabFree. */
        std::vector<ReadSlot> slab;
        std::vector<std::uint16_t> slabFree;
        std::deque<WbRequest> wbQ;
        std::vector<Cycle> bankReady;
        std::vector<std::uint64_t> openRow;
        Cycle busFree = 0;
        /** Measured data-bus occupancy (sources the busUtil window). */
        std::uint64_t busyCycles = 0;
        bool pumpScheduled = false;
    };

    /** Split @p block into its per-channel bank and row coordinates. */
    void decode(BlockAddr block, unsigned *bank,
                std::uint64_t *row) const;

    /**
     * Scheduling rank of a queued read given the bank's current open
     * row; lower wins. 0 is the FR-FCFS head class (row hits from
     * demands, High, and Medium prefetches), 1 is demand and High
     * misses, then Medium misses, then the Low tier.
     */
    unsigned pickClass(const Channel &c, const ReadKey &k) const
    {
        return classOf_[k.group][c.openRow[k.bank] == k.row];
    }

    /**
     * Index of the best read in @p c's queue, or kNoPick; its class in
     * @p cls. Without weighted service the first head-class read wins
     * outright, so the scan stops there.
     */
    std::size_t pickRead(const Channel &c, unsigned *cls) const;

    void schedulePump(unsigned ch, Cycle now);
    void pump(unsigned ch);

    DramParams params_;
    DramCtrlParams ctrl_;
    EventQueue &events_;
    Cycle transferCycles_;

    std::vector<Channel> channels_;
    ClassTable classOf_{};
    /** Bus accesses attributed to each requesting core. */
    std::vector<std::uint64_t> coreBusAccesses_;
    /** Read grants per core, the weighted-service ledger. */
    std::vector<std::uint64_t> coreServed_;
    /** Queued (not yet granted) prefetches per core, for the QoS cap. */
    std::vector<unsigned> corePrefQueued_;
    std::uint64_t nextSeq_ = 0;

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

} // namespace fdp

#endif // FDP_DRAM_DRAM_CONTROLLER_HH
