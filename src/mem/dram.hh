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
 * 500 cycles for a row conflict and 400 for a row hit. That bank and
 * bus timing is DramBackend::grant(); this class keeps the queues and
 * the pick.
 *
 * The FR-FCFS multi-channel alternative lives in
 * dram/dram_controller.hh; makeDramBackend() picks between them.
 */

#ifndef FDP_MEM_DRAM_HH
#define FDP_MEM_DRAM_HH

#include <deque>
#include <memory>

#include "dram/dram_backend.hh"

namespace fdp
{

/** Event-driven DRAM/bus engine (the flat single-bus model). */
class DramModel : public DramBackend
{
  public:
    /**
     * @param numCores  cores that may issue bus requests; per-core bus
     *                  accesses are tallied against this many counters
     */
    DramModel(const DramParams &params, EventQueue &events,
              StatGroup &stats, unsigned numCores = 1);

    /**
     * Enqueue a block request on behalf of @p core. Returns false (and
     * drops the request) only for prefetches when the prefetch queue is
     * full. The flat model has no accuracy-directed scheduling, so
     * @p tier is ignored.
     */
    bool enqueue(BlockAddr block, BusPriority prio, Cycle now, DoneFn done,
                 CoreId core = kCore0,
                 PrefetchTier tier = PrefetchTier::High) override;
    void promoteToDemand(BlockAddr block) override;
    std::size_t queued() const override;

    /** One serializing data bus. */
    unsigned dataBuses() const override { return 1; }

    /**
     * Invariants (after the base's): the demand/prefetch queues stay
     * within capacity, each request sits in the queue matching its
     * priority with a completion callback iff it is not a writeback and
     * a core id below the configured core count, the per-bank state
     * arrays match the configured bank count, and a pump event is
     * scheduled whenever work is queued.
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

    std::deque<Request> demandQ_;
    std::deque<Request> prefQ_;
    std::deque<Request> wbQ_;

    Bus bus_;
    bool pumpScheduled_ = false;
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
