/**
 * @file
 * Trace-driven out-of-order core model (paper Table 3).
 *
 * Models the properties that matter to the prefetcher feedback loop:
 * a 128-entry reorder buffer bounding memory-level parallelism, 8-wide
 * dispatch and retirement, loads that complete when the memory hierarchy
 * responds, non-blocking stores, and serialized dependent (pointer-
 * chasing) loads. Branch prediction and wrong-path execution are not
 * modeled (see DESIGN.md substitutions).
 */

#ifndef FDP_CPU_OOO_CORE_HH
#define FDP_CPU_OOO_CORE_HH

#include <cstdint>
#include <vector>

#include "mem/memory_port.hh"
#include "sim/event_queue.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "workload/workload.hh"

namespace fdp
{

/** Core configuration (paper Table 3). */
struct CoreParams
{
    unsigned robSize = 128;
    unsigned width = 8;
};

/**
 * ROB-limited out-of-order core.
 *
 * The core is driven through its stepped interface: beginRun() arms a
 * budget, step() simulates one cycle, runDone()/wakeCycle()/
 * noteDeadTime() let a caller interleave cores deterministically on
 * one event queue, and closeRun() accounts the final cycle count.
 * runLockstep() drives 1 to N cores this way; run() is runLockstep()
 * over this core alone.
 */
class OooCore : public Snapshottable
{
  public:
    OooCore(const CoreParams &params, MemoryPort &mem, EventQueue &events,
            Workload &workload, StatGroup &stats);

    /** Simulate until @p numInsts micro-ops have retired. */
    void run(std::uint64_t numInsts);

    /// @name Stepped driving (runLockstep and instrumented run loops)
    /// @{

    /** Arm a run budget of @p numInsts micro-ops without simulating. */
    void beginRun(std::uint64_t numInsts);

    /**
     * Retire then dispatch up to `width` micro-ops at cycle @p now.
     * Returns true when any micro-op retired or dispatched. The caller
     * must have serviced the event queue up to @p now first.
     */
    bool step(Cycle now);

    /** True once the armed budget has fully retired. */
    bool runDone() const { return retiredCount_ >= budget_; }

    /**
     * Cycle at which the head-of-ROB micro-op can retire, or kNoCycle
     * when the ROB is empty or the head still waits on memory (in that
     * case a pending event-queue callback will complete it).
     */
    Cycle wakeCycle() const;

    /** Record @p cycles of dispatch stall if the ROB is full. */
    void noteDeadTime(Cycle cycles);

    /** Account a finished run spanning cycles @p start .. @p end. */
    void closeRun(Cycle start, Cycle end);

    bool robEmpty() const { return head_ == tail_; }
    bool robFull() const { return tail_ - head_ == rob_.size(); }

    /// @}

    std::uint64_t cycles() const { return cycles_.value(); }
    std::uint64_t retired() const { return retired_.value() + retiredAcc_; }

    /** Retired micro-ops per cycle. */
    double ipc() const;

    /**
     * Snapshots are taken only between runs with an empty ROB (occupied
     * slots hold in-flight loads whose completion callbacks cannot be
     * serialized): just the ROB cursors and the generation counter are
     * carried, so dispatch resumes with fresh slots and exact sequence
     * numbering. The run budget is per-run state armed by beginRun().
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "core"; }

  private:
    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    struct RobEntry
    {
        OpKind kind = OpKind::Int;
        Addr addr = 0;
        Addr pc = 0;
        bool done = false;
        Cycle doneCycle = 0;
        bool issued = false;
        /** Generation tag so stale memory callbacks are ignored. */
        std::uint64_t seq = 0;
        /** ROB slot of a dependent load waiting on this one, or -1. */
        int waiter = -1;
    };

    void issueLoad(unsigned slot, Cycle now);
    void loadComplete(unsigned slot, std::uint64_t seq, Cycle when);

    /** ROB slot of position @p pos; the step loop keeps wrapping slot
     *  cursors instead, so only a restore divides. */
    unsigned slotOf(std::uint64_t pos) const
    {
        return static_cast<unsigned>(pos % rob_.size());
    }

    unsigned nextSlot(unsigned slot) const
    {
        return slot + 1 == rob_.size() ? 0 : slot + 1;
    }

    CoreParams params_;
    MemoryPort &mem_;
    EventQueue &events_;
    Workload &workload_;

    std::vector<RobEntry> rob_;
    std::uint64_t head_ = 0;  ///< oldest occupied position
    std::uint64_t tail_ = 0;  ///< next free position
    std::uint64_t nextSeq_ = 1;
    /** ROB position of the most recently dispatched load (or none). */
    std::uint64_t lastLoadPos_ = ~std::uint64_t{0};
    /** Slots of head_, tail_ and lastLoadPos_ (position mod ROB size);
     *  derived, rebuilt by loadState(). */
    unsigned headSlot_ = 0;
    unsigned tailSlot_ = 0;
    unsigned lastLoadSlot_ = 0;

    /** Armed run budget (micro-ops to retire). */
    std::uint64_t budget_ = 0;
    /** Micro-ops dispatched toward the current budget. */
    std::uint64_t dispatchedCount_ = 0;
    /** Micro-ops retired toward the current budget. */
    std::uint64_t retiredCount_ = 0;

    /**
     * Per-run accumulators for the per-op counters, published into the
     * stat group by closeRun(): the step loop then touches plain
     * integers instead of registered statistics. Zero outside a
     * beginRun()/closeRun() pair; retired() folds the pending count in.
     */
    std::uint64_t retiredAcc_ = 0;
    std::uint64_t loadsAcc_ = 0;
    std::uint64_t storesAcc_ = 0;
    std::uint64_t robFullAcc_ = 0;

    ScalarStat cycles_;
    ScalarStat retired_;
    ScalarStat loads_;
    ScalarStat stores_;
    ScalarStat robFullCycles_;
};

/**
 * Run @p cores on @p events until each has retired @p numInsts
 * micro-ops. Every cycle the live cores step in list order; when none
 * progresses the clock jumps to the next event or head-of-ROB wake
 * cycle. A core that retires its budget closes its run at that cycle
 * and leaves the list, while the rest keep contending.
 */
void runLockstep(EventQueue &events, std::vector<OooCore *> cores,
                 std::uint64_t numInsts);

} // namespace fdp

#endif // FDP_CPU_OOO_CORE_HH
