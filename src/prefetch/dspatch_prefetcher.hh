/**
 * @file
 * DSPatch: Dual Spatial Pattern prefetcher (Bera et al., MICRO 2019;
 * PAPERS.md).
 *
 * Accesses are tracked per 2KB spatial region (32 cache blocks) in a
 * small Page Buffer; when a region retires, its access bit-pattern —
 * rotated so the triggering block's offset becomes bit 0 — trains a
 * Signature Prediction Table keyed by the trigger PC. Each SPT entry
 * keeps TWO patterns: CovP, the OR-union of observed patterns
 * (coverage-biased), and AccP, the AND-intersection (accuracy-biased).
 * On the next trigger by the same PC, one of the two is replayed —
 * AccP when the DRAM bus is saturated or the FDP aggressiveness level
 * is conservative, CovP otherwise — rotated back around the new
 * trigger offset.
 *
 * Deviations from the paper's hardware: the SPT is direct-mapped with
 * a full PC tag; pattern goodness is judged with simple popcount
 * precision/recall thresholds feeding 2-bit counters rather than the
 * paper's quantized quotients; bandwidth comes from the memory
 * system's windowed bus utilization (PrefetchObservation::busUtil).
 */

#ifndef FDP_PREFETCH_DSPATCH_PREFETCHER_HH
#define FDP_PREFETCH_DSPATCH_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace fdp
{

/** 2KB spatial regions of 64-byte blocks: 32 blocks, one u32 pattern. */
inline constexpr unsigned kDspatchRegionShift = 11;
inline constexpr unsigned kDspatchBlocksPerRegion =
    1u << (kDspatchRegionShift - kBlockShift);

/** Bus utilization at or above this selects the accuracy-biased AccP. */
inline constexpr double kDspatchBwThreshold = 0.60;

/** Configuration knobs for the DSPatch prefetcher. */
struct DspatchPrefetcherParams
{
    /** Regions tracked concurrently in the Page Buffer. */
    unsigned pbEntries = 32;
    /** Entries in the Signature Prediction Table. */
    unsigned sptEntries = 256;
    /** Initial aggressiveness level (1..5). */
    unsigned initialLevel = kInitialAggrLevel;
};

/** Dual spatial bit-pattern prefetcher. */
class DspatchPrefetcher : public Prefetcher
{
  public:
    explicit DspatchPrefetcher(const DspatchPrefetcherParams &params = {});

    const char *name() const override { return "dspatch"; }
    void reset() override;

    /** Pattern bits issued per trigger at the current level. */
    unsigned degree() const { return kDspatchAggrTable[level_].degree; }

    /**
     * Invariants, after the base's level check: Page Buffer entries
     * keep their trigger bit set, trigger offsets inside the region,
     * unique region tags, and LRU stamps not in the future; SPT
     * patterns are nonzero with 2-bit scores.
     */
    void audit() const override;

    /** Serialize the level, tick, Page Buffer, and SPT. */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    /** One in-flight spatial region. */
    struct PbEntry
    {
        bool valid = false;
        std::uint64_t regionTag = 0;
        /** Access bit-pattern; bit i = block i of the region touched. */
        std::uint32_t pattern = 0;
        /** Block offset of the access that allocated the region. */
        std::uint8_t triggerOffset = 0;
        /** PC of the allocating access (the SPT signature). */
        Addr triggerPc = 0;
        std::uint64_t lastUse = 0;
    };

    /** Dual learned patterns for one trigger-PC signature. */
    struct SptEntry
    {
        bool valid = false;
        Addr tag = 0;
        /** Coverage-biased pattern: OR-union of retired patterns. */
        std::uint32_t covP = 0;
        /** Accuracy-biased pattern: AND-intersection of retired patterns. */
        std::uint32_t accP = 0;
        /** 2-bit goodness counters for each pattern. */
        std::uint8_t covScore = 0;
        std::uint8_t accScore = 0;
    };

    void doObserve(const PrefetchObservation &obs,
                   std::vector<BlockAddr> &out,
                   std::size_t budget) override;

    /** Fold a retiring region's pattern into its SPT signature. */
    void retireRegion(const PbEntry &e);
    /** Replay the learned pattern for a fresh trigger. */
    void predict(const SptEntry &s, const PbEntry &trigger, double busUtil,
                 std::vector<BlockAddr> &out, std::size_t budget) const;

    std::size_t sptIndexOf(Addr pc) const;

    DspatchPrefetcherParams params_;
    std::vector<PbEntry> pb_;
    std::vector<SptEntry> spt_;
    std::uint64_t tick_ = 0;
};

} // namespace fdp

#endif // FDP_PREFETCH_DSPATCH_PREFETCHER_HH
