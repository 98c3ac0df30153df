/**
 * @file
 * Minimal discrete-event kernel.
 *
 * The CPU model steps cycle by cycle; memory-system components schedule
 * completion callbacks on this queue. Events scheduled for the same cycle
 * fire in scheduling order (FIFO), which keeps the simulation deterministic.
 *
 * Layout: the ordering heap holds only 24-byte {when, seq, node} records
 * (hand-maintained binary min-heap in a flat vector), while the callbacks
 * live in a slab of fixed-capacity InplaceFunction slots recycled through
 * a freelist. Steady-state schedule/service cycles therefore touch only
 * pre-allocated memory: no per-event heap allocation, and sifting moves
 * small PODs instead of type-erased callables.
 */

#ifndef FDP_SIM_EVENT_QUEUE_HH
#define FDP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/check.hh"
#include "sim/inline_function.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace fdp
{

/**
 * Inline capacity of an event callback. The largest production capture
 * is the DRAM fill wrapper (a DoneFn plus the fill cycle); test and
 * bench callbacks carrying a std::function or a small payload also fit.
 */
inline constexpr std::size_t kEventCallbackBytes = 80;

/** Ordered queue of timed callbacks driving the simulation. */
class EventQueue : public Auditable, public Snapshottable
{
  public:
    using Callback = InplaceFunction<void(), kEventCallbackBytes>;

    /**
     * Schedule @p fn to run at absolute cycle @p when.
     * Scheduling in the past (before the last serviced cycle) is a bug.
     */
    void schedule(Cycle when, Callback fn);

    /** Run every event with time <= @p now, in (time, FIFO) order. */
    void serviceUntil(Cycle now);

    /** Cycle of the earliest pending event, or kNoCycle if none. */
    Cycle nextEventCycle() const;

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Total events serviced since construction (for stats/tests). */
    std::uint64_t serviced() const { return serviced_; }

    /** Last cycle passed to serviceUntil(). */
    Cycle horizon() const { return horizon_; }

    /** Drop all pending events and reset the horizon. */
    void reset();

    /**
     * Invariants: the pending array is a valid heap, no pending event
     * predates the horizon, sequence numbers are consistent,
     * serviced + pending == scheduled, and the heap and the freelist
     * together account for every callback slab slot exactly once.
     */
    void audit() const override;
    const char *auditName() const override { return "event_queue"; }

    /**
     * Snapshots are taken only at quiesce points: callbacks are
     * closures and cannot be serialized, so saveState() asserts the
     * queue is empty and carries just the horizon and the monotonic
     * counters that order future events.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "events"; }

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    /** Heap record: the callback stays put in the slab while sifting. */
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t node;  ///< slab slot holding the callback
    };

    static bool
    earlier(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::vector<Entry> heap_;           ///< min-heap on (when, seq)
    std::vector<Callback> slab_;        ///< callback storage, recycled
    std::vector<std::uint32_t> free_;   ///< unused slab slots
    std::uint64_t nextSeq_ = 0;
    std::uint64_t serviced_ = 0;
    Cycle horizon_ = 0;
};

} // namespace fdp

#endif // FDP_SIM_EVENT_QUEUE_HH
