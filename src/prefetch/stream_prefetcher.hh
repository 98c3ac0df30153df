/**
 * @file
 * IBM POWER4-style stream prefetcher (paper Section 2.1).
 *
 * Tracks up to 64 access streams. Each tracking entry walks the
 * Invalid -> Allocated -> Training -> Monitor-and-Request state machine:
 * a demand L2 miss allocates an entry, the next two misses within +/-16
 * blocks train the direction, and once trained the entry monitors the
 * region between its start pointer (A) and end pointer (P). A demand L2
 * access inside the monitored region requests blocks [P+1 .. P+N] and
 * slides the region forward, keeping P at most Prefetch Distance ahead.
 */

#ifndef FDP_PREFETCH_STREAM_PREFETCHER_HH
#define FDP_PREFETCH_STREAM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace fdp
{

/** Configuration knobs for the stream prefetcher. */
struct StreamPrefetcherParams
{
    /** Number of stream tracking entries. */
    unsigned numStreams = 64;
    /** Training window around the first miss, in blocks. */
    unsigned trainWindow = 16;
    /**
     * Aggregate requested-but-unconsumed window the engine paces itself
     * to (the Prefetch Request Queue plus headroom). Each monitoring
     * stream gets an equal share, so a few early streams cannot
     * monopolize the queue and starve later ones.
     */
    unsigned queueShareBudget = 192;
    /**
     * A monitoring entry counts toward the pacing share only if it
     * triggered within this many observations: stale entries from
     * ended streams must not throttle live ones.
     */
    std::uint64_t activityWindow = 1024;
    /** Initial aggressiveness level (1..5). */
    unsigned initialLevel = kInitialAggrLevel;
};

/** Multi-stream sequential prefetcher with 4-state tracking entries. */
class StreamPrefetcher : public Prefetcher
{
  public:
    /** Per-entry state machine states (paper Section 2.1). */
    enum class State : std::uint8_t
    {
        Invalid,
        Allocated,
        Training,
        MonitorRequest,
    };

    explicit StreamPrefetcher(const StreamPrefetcherParams &params = {});

    const char *name() const override { return "stream"; }
    void reset() override;

    /** Current prefetch distance (blocks P may run ahead of A). */
    unsigned distance() const { return kStreamAggrTable[level_].distance; }

    /** Distance after queue-share pacing across active streams. */
    unsigned effectiveDistance() const;

    /** Current prefetch degree (blocks requested per trigger). */
    unsigned degree() const { return kStreamAggrTable[level_].degree; }

    /** Number of entries currently in the Monitor-and-Request state. */
    unsigned numMonitoringStreams() const;

    /** Monitoring entries that triggered within the activity window. */
    unsigned numActiveStreams() const;

    /** State of tracking entry @p idx (for tests). */
    State entryState(unsigned idx) const { return entries_.at(idx).state; }

    /**
     * Invariants, after the base's level check: every entry in a
     * legal state, trained entries with a +/-1 direction, monitored
     * regions oriented along their direction, and LRU timestamps not in
     * the future; the derived indexes (monitor list, free list, LRU list,
     * training index) name exactly the entries they must, in order.
     */
    void audit() const override;

    /**
     * Serialize the level, the tick, and every tracking entry. The
     * derived indexes are rebuilt on restore, which rejects an entry
     * whose state, trained direction or LRU stamp no run can produce.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    struct Entry
    {
        State state = State::Invalid;
        int dir = 1;             // +1 ascending, -1 descending
        std::int64_t firstMiss = 0;
        std::int64_t lastMiss = 0;
        std::int64_t startPtr = 0;  // A
        std::int64_t endPtr = 0;    // P
        std::uint64_t lastUse = 0;  // LRU timestamp
    };

    /** Monitor-region hit test. */
    static bool inMonitorRegion(const Entry &e, std::int64_t block);

    /** Training-window hit test (anchored at the entry's first miss). */
    bool inTrainWindow(const Entry &e, std::int64_t block) const;

    void doObserve(const PrefetchObservation &obs,
                   std::vector<BlockAddr> &out,
                   std::size_t budget) override;

    /** Issue up to min(degree, budget) prefetches past P and slide the
     *  region by the number actually issued. */
    void issueFromEntry(Entry &e, std::vector<BlockAddr> &out,
                        std::size_t budget);

    /**
     * (Re)start the monitored region at @p anchor and request the
     * start-up window (prefetch distance, bounded by @p budget). Used
     * when training completes and when the demand stream overtakes a
     * region whose ramp was starved of queue budget.
     */
    void startRamp(Entry &e, std::int64_t region_start,
                   std::int64_t ramp_from, std::vector<BlockAddr> &out,
                   std::size_t budget);

    /** Pick a victim entry — the lowest Invalid entry, else the LRU
     *  one (lowest lastUse, lowest index among equals) — and take it
     *  off every index. */
    unsigned allocateEntry();

    /** Lowest-index Allocated/Training entry whose training window
     *  holds @p block, or kNil. */
    std::uint32_t findTrainEntry(std::int64_t block) const;

    /** Stamp entry @p idx with the current tick and move it to the MRU
     *  end of the LRU list. */
    void touch(std::uint32_t idx);

    /** Add/remove entry @p idx in the sorted monitor-index list. */
    void addMonitor(unsigned idx);
    void removeMonitor(unsigned idx);

    /// @name Intrusive list maintenance (LRU list, training chains)
    /// @{
    void lruUnlink(std::uint32_t idx);
    void lruAppend(std::uint32_t idx);
    /** Chain of training-index bucket @p bucket (firstMiss >>
     *  trainShift_). */
    std::size_t trainSlot(std::int64_t bucket) const;
    void trainInsert(std::uint32_t idx);
    void trainRemove(std::uint32_t idx);
    /// @}

    /** Rebuild every derived index from the entry table. */
    void rebuildIndexes();

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** An entry's links in the LRU list and its training chain. */
    struct Links
    {
        std::uint32_t lruPrev = kNil;  ///< toward the LRU end
        std::uint32_t lruNext = kNil;  ///< toward the MRU end
        std::uint32_t trainPrev = kNil;
        std::uint32_t trainNext = kNil;
    };

    StreamPrefetcherParams params_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;

    /// @name Derived indexes
    /// Maintained at every FSM transition and lastUse stamp, rebuilt by
    /// loadState() and reset(), never serialized; audit() recounts each
    /// against the table. They change how the table is searched, never
    /// which entry a search finds.
    /// @{

    /**
     * Indices of the entries currently in Monitor-and-Request state,
     * kept sorted so iterating it visits entries in the same order a
     * full table scan would.
     */
    std::vector<std::uint32_t> monitorIdx_;
    /** Invalid entries, highest index first: back() is the lowest. */
    std::vector<std::uint32_t> freeIdx_;
    /**
     * Valid entries in (lastUse, index) order: the head is the victim a
     * full LRU scan would pick. touch() stamps the newest tick, so
     * appending at the tail keeps the order.
     */
    std::uint32_t lruHead_ = kNil;
    std::uint32_t lruTail_ = kNil;
    std::vector<Links> links_;
    /**
     * Training index: Allocated/Training entries chained by a hash of
     * firstMiss >> trainShift_. A bucket is at least 2*trainWindow+1
     * blocks wide, so the entries whose window can hold a miss sit in
     * the chains of at most two adjacent buckets.
     */
    std::vector<std::uint32_t> trainHead_;
    unsigned trainShift_ = 0;
    unsigned trainHashShift_ = 0;
    /// @}
};

} // namespace fdp

#endif // FDP_PREFETCH_STREAM_PREFETCHER_HH
