/**
 * @file
 * Set-associative cache with a true-LRU recency stack that supports
 * inserting fills at an arbitrary stack position (paper Section 3.3.2).
 *
 * Each tag-store entry carries the pref-bit of paper Section 3.1.1: set
 * when a prefetch fill installs the block, cleared (and reported) when a
 * demand access touches the block.
 *
 * Layout: all ways of all sets live in one contiguous arena allocated at
 * construction (lines_[set * assoc + way]), and each set's recency order
 * is an intrusive doubly-linked chain threaded through its lines via
 * one-byte prev/next way indices (LRU head, MRU tail). Hit promotion,
 * LRU eviction, and arbitrary-position insertion are pointer splices —
 * no std::find over a recency vector and no mid-vector erase/insert —
 * and a demand access touches only the 16-way line span it maps to.
 */

#ifndef FDP_MEM_CACHE_HH
#define FDP_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/insertion.hh"
#include "sim/check.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace fdp
{

/** Geometry and identity of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::size_t sizeBytes = 1024 * 1024;
    unsigned assoc = 16;
    /** Cores that may own lines (shared caches in a multi-core machine);
     *  the audit rejects owner tags outside this range. */
    unsigned numCores = 1;
};

/** Result of a demand lookup. */
struct CacheAccessResult
{
    bool hit = false;
    /** Hit on a block whose pref-bit was set (bit is cleared by the hit). */
    bool hitPrefetched = false;
    CoreId owner;  ///< on a hit, the core whose fill installed the block
};

/** Information about a block evicted by an insertion. */
struct CacheVictim
{
    bool valid = false;
    BlockAddr block = 0;
    bool prefBit = false;  ///< block was prefetched and never used
    bool dirty = false;
    CoreId owner;          ///< core whose fill installed the block
};

/** Set-associative, true-LRU, write-back cache model (tags only). */
class SetAssocCache : public Auditable, public Snapshottable
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    /**
     * Demand access: on a hit the block moves to MRU, its pref-bit is
     * cleared, and @p isWrite marks it dirty.
     */
    CacheAccessResult access(BlockAddr block, bool isWrite);

    /** State-preserving presence check. */
    bool probe(BlockAddr block) const;

    /**
     * Install @p block at stack position @p pos, evicting the LRU block
     * of the set if the set is full. @p prefBit tags prefetch fills;
     * @p owner records the core whose fill installed the block (shared
     * caches attribute victim bookkeeping by it).
     */
    CacheVictim insert(BlockAddr block, bool prefBit, InsertPos pos,
                       bool dirty, CoreId owner = kCore0);

    /** Mark @p block dirty if present (L1 writeback landing in L2). */
    bool markDirty(BlockAddr block);

    /** Remove @p block if present; returns its pre-removal state. */
    CacheVictim invalidate(BlockAddr block);

    /**
     * Recency-stack depth of @p block: 0 = LRU .. assoc-1 = MRU,
     * or -1 when absent (test/introspection helper).
     */
    int stackDepth(BlockAddr block) const;

    std::size_t numSets() const { return sets_.size(); }
    unsigned assoc() const { return params_.assoc; }
    std::size_t numBlocks() const { return numSets() * assoc(); }
    const std::string &name() const { return params_.name; }

    /** Blocks currently valid (for tests). */
    std::size_t occupancy() const;

    void clear();

    /**
     * Invariants: each set's recency chain visits exactly its valid ways
     * once with consistent prev/next links, the valid-way count matches
     * `used`, every valid block maps to the set that holds it, and every
     * valid line's owner tag names a core below the configured count.
     */
    void audit() const override;
    const char *auditName() const override { return params_.name.c_str(); }

    /**
     * Serialize the full tag store: every line's tag/flags/recency links
     * and owner, plus each set's chain endpoints. loadState() checks the
     * restoring cache has identical geometry.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return snapName_.c_str(); }

  private:
    friend struct AuditCorrupter;

    static constexpr std::uint8_t kNoWay = 0xFF;
    static constexpr std::uint8_t kValid = 1 << 0;
    static constexpr std::uint8_t kPref = 1 << 1;
    static constexpr std::uint8_t kDirty = 1 << 2;

    /** One way of one set, in the flat arena. */
    struct Line
    {
        BlockAddr tag = 0;
        std::uint8_t flags = 0;
        std::uint8_t prev = kNoWay;  ///< toward LRU
        std::uint8_t next = kNoWay;  ///< toward MRU
        CoreId owner;                ///< core whose fill installed it
    };

    /** Per-set chain endpoints and occupancy. */
    struct SetLinks
    {
        std::uint8_t lru = kNoWay;
        std::uint8_t mru = kNoWay;
        std::uint8_t used = 0;
    };

    std::size_t setIndex(BlockAddr block) const;
    int findWay(std::size_t base, BlockAddr block) const;
    void unlink(SetLinks &set, std::size_t base, std::uint8_t way);
    void appendMru(SetLinks &set, std::size_t base, std::uint8_t way);
    void linkAtDepth(SetLinks &set, std::size_t base, std::uint8_t way,
                     unsigned depth, unsigned chainLen);

    CacheParams params_;
    std::string snapName_;        ///< "cache/" + params_.name
    std::vector<Line> lines_;     ///< the arena: lines_[set * assoc + way]
    std::vector<SetLinks> sets_;
};

} // namespace fdp

#endif // FDP_MEM_CACHE_HH
