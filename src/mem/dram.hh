/**
 * @file
 * Bandwidth-limited DRAM + memory bus model (paper Table 3), the
 * default DramBackend implementation.
 *
 * Requests drain from three priority queues (demand > prefetch >
 * writeback, with a writeback high-water override so dirty data cannot
 * starve forever). The shared data bus is the serializing resource: each
 * 64B block occupies it for sizeBytes/busBytesPerCycle cycles, which with
 * the paper's 4.5 GB/s at 4 GHz is ~57 cycles per block. Banks model
 * open-row hits vs. conflicts; the unloaded end-to-end latency is
 * 500 cycles for a row conflict and 400 for a row hit.
 *
 * The FR-FCFS multi-channel alternative lives in
 * dram/dram_controller.hh; makeDramBackend() picks between them.
 */

#ifndef FDP_MEM_DRAM_HH
#define FDP_MEM_DRAM_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "dram/dram_backend.hh"
#include "sim/check.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace fdp
{

/** Event-driven DRAM/bus engine (the flat single-bus model). */
class DramModel : public DramBackend
{
  public:
    using DoneFn = fdp::DoneFn;

    /**
     * @param numCores  cores that may issue bus requests; per-core bus
     *                  accesses are tallied against this many counters
     */
    DramModel(const DramParams &params, EventQueue &events,
              StatGroup &stats, unsigned numCores = 1);

    /**
     * Enqueue a block request on behalf of @p core. Returns false (and
     * drops the request) only for prefetches when the prefetch queue is
     * full. @p done is invoked with the cycle at which the fill reaches
     * the L2; pass nullptr for writebacks. The flat model has no
     * accuracy-directed scheduling, so @p tier is ignored.
     */
    bool enqueue(BlockAddr block, BusPriority prio, Cycle now, DoneFn done,
                 CoreId core = kCore0,
                 PrefetchTier tier = PrefetchTier::High) override;

    /**
     * Promote a still-queued prefetch for @p block to demand priority
     * (a demand merged with it in the MSHR). No-op if already granted.
     */
    void promoteToDemand(BlockAddr block) override;

    /** Requests currently waiting (all priorities). */
    std::size_t queued() const override;

    const DramParams &params() const override { return params_; }

    /// @name Lifetime statistics
    /// @{
    std::uint64_t busAccesses() const override
    {
        return busAccesses_.value();
    }
    std::uint64_t busBusyCycles() const override
    {
        return busBusyCycles_.value();
    }
    std::uint64_t rowHits() const override { return rowHits_.value(); }
    std::uint64_t rowConflicts() const override
    {
        return rowConflicts_.value();
    }

    /** Blocks transferred on the bus on behalf of @p core. */
    std::uint64_t busAccessesByCore(CoreId core) const override;
    /// @}

    /** One serializing data bus. */
    unsigned dataBuses() const override { return 1; }

    /**
     * Invariants: the demand/prefetch queues stay within capacity, each
     * request sits in the queue matching its priority with a completion
     * callback iff it is not a writeback and a core id below the
     * configured core count, the per-bank state arrays match the
     * configured bank count, a pump event is scheduled whenever work is
     * queued, and the per-core bus-access counters sum exactly to the
     * shared total.
     */
    void audit() const override;
    const char *auditName() const override { return "dram"; }

    /**
     * Snapshots are taken only at quiesce points: queued requests carry
     * completion closures, so saveState() asserts the queues are empty
     * and serializes the bank timing state, the open rows, the bus
     * horizon, and the per-core attribution counters.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "dram"; }

    /**
     * Zero the per-core bus-access attribution alongside a StatGroup
     * reset: the audit cross-checks these counters against the
     * bus_accesses statistic, so a measurement boundary must clear both.
     */
    void resetAttribution() override;

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    struct Request
    {
        BlockAddr block = 0;
        BusPriority prio = BusPriority::Demand;
        Cycle enqueueCycle = 0;
        CoreId core;
        DoneFn done;
    };

    void auditQueue(const std::deque<Request> &q, BusPriority prio,
                    const char *label) const;

    void schedulePump(Cycle now);
    void pump();
    bool popNext(Request &out);

    DramParams params_;
    EventQueue &events_;
    Cycle transferCycles_;

    std::deque<Request> demandQ_;
    std::deque<Request> prefQ_;
    std::deque<Request> wbQ_;

    std::vector<Cycle> bankReady_;
    std::vector<std::uint64_t> openRow_;
    /** Bus accesses attributed to each requesting core. */
    std::vector<std::uint64_t> coreBusAccesses_;
    Cycle busFree_ = 0;
    bool pumpScheduled_ = false;

    ScalarStat busAccesses_;
    ScalarStat demandGrants_;
    ScalarStat prefetchGrants_;
    ScalarStat writebackGrants_;
    ScalarStat rowHits_;
    ScalarStat rowConflicts_;
    ScalarStat busBusyCycles_;
    ScalarStat promotions_;
};

/**
 * Instantiate the configured DRAM backend: the flat Table 3 model
 * (DramKind::Flat, the default and the golden baseline) or the
 * FR-FCFS multi-channel controller (DramKind::Controller).
 */
std::unique_ptr<DramBackend>
makeDramBackend(const DramParams &params, const DramCtrlParams &ctrl,
                EventQueue &events, StatGroup &stats, unsigned numCores);

} // namespace fdp

#endif // FDP_MEM_DRAM_HH
