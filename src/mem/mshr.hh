/**
 * @file
 * Miss Status Holding Registers for the L2 (paper Section 3.1.2).
 *
 * Each in-flight memory request holds one entry; entries carry the
 * pref-bit used to detect late prefetches: a demand request that finds a
 * matching entry with the pref-bit set means the prefetch was issued but
 * its data has not returned yet.
 *
 * Layout: entries live in a fixed array of pinned slots sized at
 * construction (pointers handed out by find()/allocate() stay valid for
 * the entry's whole lifetime), located through a small open-addressed
 * index of {block, slot} records with linear probing and backward-shift
 * deletion. Freed slots keep their waiter vector's capacity, so the
 * steady-state allocate/merge/fill cycle performs no heap allocation.
 */

#ifndef FDP_MEM_MSHR_HH
#define FDP_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "sim/check.hh"
#include "sim/inline_function.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace fdp
{

/** One in-flight miss. */
struct MshrEntry
{
    BlockAddr block = 0;
    /** Set when the request was generated by the prefetcher. */
    bool prefBit = false;
    /** A merged demand store marked the eventual fill dirty. */
    bool writeIntent = false;
    /** Allocation time (for stats). */
    Cycle allocCycle = 0;
    /** Core whose request allocated the entry (fills attribute to it). */
    CoreId core;
    /** Demand waiters notified with the fill cycle. */
    std::vector<DoneFn> waiters;
};

/** Fixed-capacity MSHR file keyed by block address. */
class MshrFile : public Auditable, public Snapshottable
{
  public:
    /**
     * @param capacity  number of entries
     * @param numCores  cores that may allocate entries; the audit rejects
     *                  any entry tagged with a core outside this range
     */
    explicit MshrFile(std::size_t capacity, unsigned numCores = 1);

    /** Entry for @p block, or nullptr when none is in flight. */
    MshrEntry *find(BlockAddr block);

    bool full() const { return freeSlots_.empty(); }
    std::size_t size() const { return capacity_ - freeSlots_.size(); }
    std::size_t capacity() const { return capacity_; }

    /**
     * Allocate an entry for @p block on behalf of @p core; the file must
     * not be full and the block must not already be in flight.
     */
    MshrEntry &allocate(BlockAddr block, bool prefBit, Cycle now,
                        CoreId core = kCore0);

    /**
     * Release the entry for @p block (must exist). The slot's waiter
     * storage is recycled, not freed.
     */
    void deallocate(BlockAddr block);

    void clear();

    /**
     * Invariants: occupancy within capacity, each index record naming a
     * live slot that records the same block (one outstanding request per
     * line), unbroken probe chains, the freelist and the index
     * partitioning the slots, prefetch entries carrying no demand
     * state (waiters/write intent arrive only through a merge, which
     * clears the pref-bit), and every live entry tagged with a core id
     * below the configured core count.
     */
    void audit() const override;
    const char *auditName() const override { return "mshr"; }

    /**
     * Snapshots are taken only at quiesce points: waiters are closures
     * and cannot be serialized, so saveState() asserts the file is
     * empty and records just the capacity as a restore-time check.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "mshr"; }

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** One open-addressed index record. */
    struct Bucket
    {
        BlockAddr block = 0;
        std::uint32_t slot = kNoSlot;
    };

    std::size_t homeBucket(BlockAddr block) const;

    /** Bucket holding @p block, or the empty bucket ending its chain. */
    std::size_t probe(BlockAddr block) const;

    std::size_t capacity_;
    unsigned numCores_;
    std::vector<MshrEntry> slots_;          ///< pinned; never resized
    std::vector<std::uint32_t> freeSlots_;  ///< unallocated slot ids
    std::vector<Bucket> index_;             ///< power-of-two, >= 2x slots
    std::size_t indexMask_ = 0;
};

} // namespace fdp

#endif // FDP_MEM_MSHR_HH
