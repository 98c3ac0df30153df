/**
 * @file
 * VLDP: Variable Length Delta Prefetcher (Shevgoor et al., MICRO 2015;
 * SNIPPETS.md snippet 3).
 *
 * Per-page delta histories feed a cascade of Delta Prediction Tables
 * (DPTs): DPT level j maps the last j block-deltas seen within a page
 * to the predicted next delta, and lookups prefer the longest matching
 * history. An Offset Prediction Table (OPT) predicts a delta from the
 * first-touched block offset alone, so even the first access to a page
 * can trigger a prefetch. Predictions chain multi-degree: each
 * predicted delta extends the speculative history used to look up the
 * next one.
 *
 * Deviations from the paper's hardware tables (documented here so the
 * audit invariants are readable): tables are direct-mapped with full
 * key compare instead of set-associative; all structures live at the
 * L2 and train on every demand access the L2 sees (the L1-filtered
 *  stream), not on an L1/L2 split.
 */

#ifndef FDP_PREFETCH_VLDP_PREFETCHER_HH
#define FDP_PREFETCH_VLDP_PREFETCHER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace fdp
{

/** Longest delta history tracked per page (== number of DPT levels). */
inline constexpr unsigned kVldpHistLen = 3;
/** 4KB pages of 64-byte blocks. */
inline constexpr unsigned kVldpPageShift = 12;
inline constexpr unsigned kVldpBlocksPerPage =
    1u << (kVldpPageShift - kBlockShift);

/** Configuration knobs for the VLDP prefetcher. */
struct VldpPrefetcherParams
{
    /** Pages tracked concurrently in the Delta History Buffer. */
    unsigned dhbEntries = 16;
    /** Entries per Delta Prediction Table level. */
    unsigned dptEntries = 64;
    /** Initial aggressiveness level (1..5). */
    unsigned initialLevel = kInitialAggrLevel;
};

/** Variable-length delta-history prefetcher. */
class VldpPrefetcher : public Prefetcher
{
  public:
    explicit VldpPrefetcher(const VldpPrefetcherParams &params = {});

    const char *name() const override { return "vldp"; }
    void reset() override;

    /** Prediction-chain depth per trigger at the current level. */
    unsigned degree() const { return kVldpAggrTable[level_].degree; }

    /**
     * Invariants, after the base's level check: DHB offsets and
     * delta histories within page bounds with unique page tags and LRU stamps
     * not in the future; DPT entries stored in the slot their key
     * hashes to with legal deltas and saturating counters; OPT
     * predictions are legal nonzero deltas.
     */
    void audit() const override;

    /** Serialize the level, tick, DHB, OPT, and all DPT levels. */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    /** One page's recent access history. */
    struct DhbEntry
    {
        bool valid = false;
        std::uint64_t pageTag = 0;
        /** Block offset of the most recent access within the page. */
        std::uint8_t lastOffset = 0;
        /** Block offset of the page's first recorded access (OPT key). */
        std::uint8_t firstOffset = 0;
        /** Deltas, most recent first; only the first numDeltas are live. */
        std::array<std::int8_t, kVldpHistLen> deltas{};
        std::uint8_t numDeltas = 0;
        std::uint64_t lastUse = 0;
    };

    /** Delta Prediction Table entry: history key -> next delta. */
    struct DptEntry
    {
        bool valid = false;
        /** History key, most recent first; level j uses the first j. */
        std::array<std::int8_t, kVldpHistLen> key{};
        std::int8_t pred = 0;
        /** 2-bit saturating accuracy counter. */
        std::uint8_t accuracy = 0;
    };

    /** Offset Prediction Table entry: first offset -> first delta. */
    struct OptEntry
    {
        bool valid = false;
        std::int8_t pred = 0;
        /** 2-bit saturating accuracy counter. */
        std::uint8_t accuracy = 0;
    };

    void doObserve(const PrefetchObservation &obs,
                   std::vector<BlockAddr> &out,
                   std::size_t budget) override;

    /** DHB slot for @p pageTag, or dhbEntries if untracked. */
    std::size_t findPage(std::uint64_t pageTag) const;
    /** LRU victim slot (invalid slots first, then oldest lastUse). */
    std::size_t victimSlot() const;
    /** DPT slot the first @p len deltas of @p key hash to. */
    std::size_t dptIndexOf(unsigned len,
                           const std::array<std::int8_t, kVldpHistLen> &key)
        const;
    /** Train DPT level @p len with history @p key -> @p delta. */
    void trainDpt(unsigned len,
                  const std::array<std::int8_t, kVldpHistLen> &key,
                  std::int8_t delta);
    /** Longest-match DPT lookup; 0 means no confident prediction. */
    std::int8_t predictDelta(
        unsigned histLen,
        const std::array<std::int8_t, kVldpHistLen> &hist) const;

    VldpPrefetcherParams params_;
    std::vector<DhbEntry> dhb_;
    std::array<OptEntry, kVldpBlocksPerPage> opt_{};
    /** dpt_[j] is DPT level j+1 (keys of length j+1). */
    std::array<std::vector<DptEntry>, kVldpHistLen> dpt_;
    std::uint64_t tick_ = 0;
};

} // namespace fdp

#endif // FDP_PREFETCH_VLDP_PREFETCHER_HH
