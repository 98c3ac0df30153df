/**
 * @file
 * PC-based stride prefetcher (Baer & Chen reference prediction table,
 * as used by paper Section 5.8).
 *
 * A table indexed by the PC of the memory instruction records the last
 * address and observed stride with a 4-state confidence FSM
 * (Initial / Transient / Steady / NoPred). Steady entries issue `degree`
 * prefetches ending `distance` strides ahead of the current access.
 */

#ifndef FDP_PREFETCH_STRIDE_PREFETCHER_HH
#define FDP_PREFETCH_STRIDE_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace fdp
{

/** Configuration knobs for the PC-stride prefetcher. */
struct StridePrefetcherParams
{
    /** Entries in the reference prediction table. */
    unsigned tableSize = 256;
    /** Initial aggressiveness level (1..5). */
    unsigned initialLevel = kInitialAggrLevel;
};

/** Reference-prediction-table stride prefetcher. */
class StridePrefetcher : public Prefetcher
{
  public:
    /** Baer-Chen confidence states. */
    enum class State : std::uint8_t
    {
        Initial,
        Transient,
        Steady,
        NoPred,
    };

    explicit StridePrefetcher(const StridePrefetcherParams &params = {});

    const char *name() const override { return "pc-stride"; }
    void reset() override;

    unsigned distance() const { return kStrideAggrTable[level_].distance; }
    unsigned degree() const { return kStrideAggrTable[level_].degree; }

    /** FSM state of the entry holding @p pc, or NoPred if absent. */
    State entryState(Addr pc) const;

    /**
     * Invariants, after the base's level check: every valid entry in
     * a legal FSM state, stored in the slot its tag hashes to, with an
     * LRU timestamp not in the future.
     */
    void audit() const override;

    /** Serialize the level, the tick, and the prediction table. */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    void doObserve(const PrefetchObservation &obs,
                   std::vector<BlockAddr> &out,
                   std::size_t budget) override;

    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        std::int64_t lastAddr = 0;
        std::int64_t stride = 0;  // in bytes
        State state = State::Initial;
        std::uint64_t lastUse = 0;
    };

    std::size_t indexOf(Addr pc) const;

    StridePrefetcherParams params_;
    std::vector<Entry> table_;
    std::uint64_t tick_ = 0;
};

} // namespace fdp

#endif // FDP_PREFETCH_STRIDE_PREFETCHER_HH
