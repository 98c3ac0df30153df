#include "mem/mshr.hh"

#include "sim/logging.hh"

namespace fdp
{

MshrFile::MshrFile(std::size_t capacity, unsigned numCores)
    : capacity_(capacity), numCores_(numCores)
{
    if (numCores_ == 0)
        fatal("MSHR file needs at least one core");
    slots_.resize(capacity_);
    freeSlots_.reserve(capacity_);
    for (std::size_t s = capacity_; s > 0; --s)
        freeSlots_.push_back(static_cast<std::uint32_t>(s - 1));

    // Keep the index at most half full so probe chains stay short.
    std::size_t buckets = 8;
    while (buckets < 2 * capacity_)
        buckets *= 2;
    index_.resize(buckets);
    indexMask_ = buckets - 1;
}

std::size_t
MshrFile::homeBucket(BlockAddr block) const
{
    // Fibonacci hashing: multiply spreads the low-entropy block-address
    // bits, the mask keeps the table a power of two.
    return static_cast<std::size_t>(
               (block * 0x9E3779B97F4A7C15ull) >> 32) & indexMask_;
}

std::size_t
MshrFile::probe(BlockAddr block) const
{
    std::size_t i = homeBucket(block);
    while (index_[i].slot != kNoSlot && index_[i].block != block)
        i = (i + 1) & indexMask_;
    return i;
}

MshrEntry *
MshrFile::find(BlockAddr block)
{
    const std::size_t i = probe(block);
    return index_[i].slot == kNoSlot ? nullptr : &slots_[index_[i].slot];
}

MshrEntry &
MshrFile::allocate(BlockAddr block, bool prefBit, Cycle now, CoreId core)
{
    if (full())
        panic("MSHR allocate while full (capacity %zu)", capacity_);
    const std::size_t i = probe(block);
    if (index_[i].slot != kNoSlot)
        panic("MSHR allocate for block already in flight");

    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    index_[i] = Bucket{block, slot};

    MshrEntry &e = slots_[slot];
    e.block = block;
    e.prefBit = prefBit;
    e.writeIntent = false;
    e.allocCycle = now;
    e.core = core;
    e.waiters.clear();
    return e;
}

void
MshrFile::deallocate(BlockAddr block)
{
    std::size_t i = probe(block);
    if (index_[i].slot == kNoSlot)
        panic("MSHR deallocate for absent block");

    MshrEntry &e = slots_[index_[i].slot];
    e.waiters.clear();  // recycle the storage with the slot
    freeSlots_.push_back(index_[i].slot);

    // Backward-shift deletion: pull every displaced successor in the
    // probe chain into the hole so lookups never need tombstones.
    std::size_t j = i;
    for (;;) {
        j = (j + 1) & indexMask_;
        if (index_[j].slot == kNoSlot)
            break;
        const std::size_t home = homeBucket(index_[j].block);
        const bool movable = j > i ? (home <= i || home > j)
                                   : (home <= i && home > j);
        if (movable) {
            index_[i] = index_[j];
            i = j;
        }
    }
    index_[i] = Bucket{};
}

void
MshrFile::clear()
{
    for (Bucket &b : index_)
        b = Bucket{};
    freeSlots_.clear();
    for (std::size_t s = capacity_; s > 0; --s)
        freeSlots_.push_back(static_cast<std::uint32_t>(s - 1));
    for (MshrEntry &e : slots_)
        e.waiters.clear();
}

template <typename Self, typename Io>
void
MshrFile::snapFields(Self &self, Io &io)
{
    FDP_ASSERT(self.size() == 0,
               "%s: %zu misses in flight at a snapshot (not quiesced)",
               self.auditName(), self.size());
    io.begin(self.snapName());
    io.fixedU32(self.capacity_, "capacity");
    io.end();
}

void
MshrFile::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
MshrFile::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

void
MshrFile::audit() const
{
    FDP_ASSERT(size() <= capacity_,
               "%s: %zu entries exceed capacity %zu", auditName(),
               size(), capacity_);
    FDP_ASSERT(freeSlots_.size() <= capacity_,
               "%s: freelist holds %zu of %zu slots", auditName(),
               freeSlots_.size(), capacity_);

    std::vector<bool> live(capacity_, false);
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < index_.size(); ++i) {
        const Bucket &b = index_[i];
        if (b.slot == kNoSlot)
            continue;
        ++occupied;
        FDP_ASSERT(b.slot < capacity_,
                   "%s: index names slot %u of %zu", auditName(), b.slot,
                   capacity_);
        FDP_ASSERT(!live[b.slot],
                   "%s: two index records share slot %u", auditName(),
                   b.slot);
        live[b.slot] = true;

        // The probe chain from the record's home bucket must reach it
        // without crossing an empty bucket, or lookups would miss it.
        for (std::size_t p = homeBucket(b.block); p != i;
             p = (p + 1) & indexMask_)
            FDP_ASSERT(index_[p].slot != kNoSlot,
                       "%s: probe chain for block %llu broken at bucket "
                       "%zu",
                       auditName(),
                       static_cast<unsigned long long>(b.block), p);

        const MshrEntry &e = slots_[b.slot];
        FDP_ASSERT(e.core.index() < numCores_,
                   "%s: entry for block %llu tagged with core %u of %u",
                   auditName(), static_cast<unsigned long long>(b.block),
                   e.core.index(), numCores_);
        FDP_ASSERT(e.block == b.block,
                   "%s: entry keyed by block %llu records block %llu",
                   auditName(), static_cast<unsigned long long>(b.block),
                   static_cast<unsigned long long>(e.block));
        if (e.prefBit) {
            FDP_ASSERT(e.waiters.empty(),
                       "%s: prefetch entry for block %llu has %zu demand "
                       "waiters",
                       auditName(),
                       static_cast<unsigned long long>(b.block),
                       e.waiters.size());
            FDP_ASSERT(!e.writeIntent,
                       "%s: prefetch entry for block %llu has write "
                       "intent",
                       auditName(),
                       static_cast<unsigned long long>(b.block));
        }
    }
    FDP_ASSERT(occupied == size(),
               "%s: index holds %zu records for %zu entries", auditName(),
               occupied, size());
    for (const std::uint32_t slot : freeSlots_) {
        FDP_ASSERT(slot < capacity_,
                   "%s: freelist names slot %u of %zu", auditName(), slot,
                   capacity_);
        FDP_ASSERT(!live[slot],
                   "%s: slot %u is both indexed and free", auditName(),
                   slot);
        live[slot] = true;
    }
}

} // namespace fdp
