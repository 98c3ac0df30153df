/**
 * @file
 * Bloom-filter pollution tracker (paper Section 3.1.3, Figure 4).
 *
 * A 4096-entry bit vector indexed by the XOR of the low and next-higher
 * 12 bits of the cache-block address approximates the set of
 * demand-fetched blocks that prefetches evicted from the L2:
 *
 *  - set   when a demand-fetched block is evicted by a prefetch fill;
 *  - reset when a prefetch fill for that block address arrives (the block
 *    is back in the cache);
 *  - test  on every demand miss: a set bit means the miss would not have
 *    happened without the prefetcher.
 */

#ifndef FDP_CORE_POLLUTION_FILTER_HH
#define FDP_CORE_POLLUTION_FILTER_HH

#include <cstdint>
#include <vector>

#include "sim/check.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace fdp
{

/** XOR-indexed bit-vector estimating prefetcher-generated pollution. */
class PollutionFilter : public Auditable, public Snapshottable
{
  public:
    /** @param bits filter size; must be a power of two (paper: 4096). */
    explicit PollutionFilter(std::size_t bits = 4096);

    /** A demand-fetched block was evicted by a prefetch fill. */
    void onDemandBlockEvictedByPrefetch(BlockAddr block);

    /** A prefetch fill for @p block arrived from memory. */
    void onPrefetchFill(BlockAddr block);

    /**
     * Test on a demand miss: true means the filter attributes this miss
     * to the prefetcher.
     */
    bool demandMissCausedByPrefetcher(BlockAddr block) const;

    /** Number of set bits (for tests/stats). */
    std::size_t popcount() const;

    std::size_t size() const { return bits_.size(); }

    void clear();

    /** The paper's index function: low 12 bits XOR next 12 bits. */
    std::size_t indexOf(BlockAddr block) const;

    /**
     * Invariants: the filter size is a power of two, the index mask
     * matches it, and the set-bit count is within the filter size.
     */
    void audit() const override;
    const char *auditName() const override { return "pollution_filter"; }

    /** Serialize the bit vector, packed eight bits per byte. */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "fdp/filter"; }

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    std::vector<bool> bits_;
    std::size_t mask_;
    unsigned shift_ = 12;
};

} // namespace fdp

#endif // FDP_CORE_POLLUTION_FILTER_HH
