/**
 * @file
 * Global History Buffer C/DC (C-Zone Delta Correlation) prefetcher
 * (Nesbit & Smith, as used by paper Section 5.7).
 *
 * L2 miss addresses are pushed into a circular Global History Buffer;
 * an index table keyed by Concentration Zone (CZone) heads a linked list
 * of that zone's misses through the buffer. On each miss the zone's
 * recent delta stream is reconstructed and the last delta pair is
 * correlated against history; on a match, the deltas that followed the
 * match are replayed to produce prefetch addresses.
 */

#ifndef FDP_PREFETCH_GHB_PREFETCHER_HH
#define FDP_PREFETCH_GHB_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace fdp
{

/** Configuration knobs for the GHB C/DC prefetcher. */
struct GhbPrefetcherParams
{
    /** Entries in the global history buffer. */
    unsigned ghbSize = 256;
    /** Entries in the CZone index table. */
    unsigned indexSize = 256;
    /** log2(CZone size in blocks); 10 = 64KB zones with 64B blocks. */
    unsigned czoneShift = 10;
    /** Maximum history walked per miss, in GHB entries. */
    unsigned maxHistory = 64;
    /** Initial aggressiveness level (1..5). */
    unsigned initialLevel = kInitialAggrLevel;
};

/** GHB-based delta-correlation prefetcher. */
class GhbPrefetcher : public Prefetcher
{
  public:
    explicit GhbPrefetcher(const GhbPrefetcherParams &params = {});

    const char *name() const override { return "ghb-cdc"; }
    void reset() override;

    /** Current prefetch degree (== distance for GHB, Section 5.7). */
    unsigned degree() const { return kGhbAggrTable[level_].degree; }

    /**
     * Invariants, after the base's level check: index entries name
     * distinct zones with live-or-null head pointers, and every live
     * GHB link points strictly backwards in sequence order (the
     * same-zone lists are acyclic).
     */
    void audit() const override;

    /** Serialize the history buffer, the index table, and the cursors. */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    void doObserve(const PrefetchObservation &obs,
                   std::vector<BlockAddr> &out,
                   std::size_t budget) override;

    struct GhbEntry
    {
        std::int64_t block = 0;
        /** Sequence number of the previous same-zone entry (or 0). */
        std::uint64_t prevSeq = 0;
        bool hasPrev = false;
        /**
         * Cached block - prevBlock, filled at push time. Entries are
         * immutable until overwritten, so while prevSeq is live this
         * equals the delta recomputed from the buffer; the history walk
         * reads it instead of chasing the predecessor's block. Derived:
         * rebuilt (not stored) by loadState().
         */
        std::int64_t delta = 0;
    };

    struct IndexEntry
    {
        bool valid = false;
        std::uint64_t zone = 0;
        std::uint64_t headSeq = 0;
        std::uint64_t lastUse = 0;
    };

    /** True when @p seq still addresses a live (not overwritten) slot. */
    bool seqLive(std::uint64_t seq) const;

    /** GHB slot of @p seq (single AND when ghbSize is a power of two). */
    std::size_t slotOf(std::uint64_t seq) const
    {
        return slotMask_ ? static_cast<std::size_t>(seq & slotMask_)
                         : static_cast<std::size_t>(seq % ghb_.size());
    }

    /** Zone-map probe position for @p zone. */
    std::size_t hashZone(std::uint64_t zone) const
    {
        return static_cast<std::size_t>(
            (zone * 0x9E3779B97F4A7C15ull) >> zoneHashShift_);
    }

    /** Rebuild the zone map from the valid index entries. */
    void rebuildZoneMap();

    /** Index-table lookup; returns nullptr on miss. O(1) via zoneMap_. */
    IndexEntry *findZone(std::uint64_t zone);

    /** Index-table fill, evicting LRU if needed. */
    IndexEntry &allocateZone(std::uint64_t zone);

    GhbPrefetcherParams params_;
    std::vector<GhbEntry> ghb_;
    std::vector<IndexEntry> index_;
    /** Sequence number of the next push; slot = slotOf(seq). */
    std::uint64_t nextSeq_ = 1;
    std::uint64_t tick_ = 0;
    /** ghbSize - 1 when ghbSize is a power of two, else 0. */
    std::uint64_t slotMask_ = 0;
    /**
     * Open-addressed (linear-probe) map from zone to index_ slot, so
     * the per-miss lookup is O(1) instead of a table scan. Holds only
     * valid entries and is rebuilt whenever the index table changes
     * shape (allocation/eviction, reset, restore). Derived state:
     * never serialized, never audited as primary.
     */
    std::vector<std::uint32_t> zoneMap_;
    unsigned zoneHashShift_ = 0;
    /** Scratch buffer reused across observe() calls. */
    std::vector<std::int64_t> deltas_;
};

} // namespace fdp

#endif // FDP_PREFETCH_GHB_PREFETCHER_HH
