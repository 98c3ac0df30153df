#include "prefetch/ghb_prefetcher.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fdp
{

namespace
{
/** Empty zone-map slot sentinel. */
constexpr std::uint32_t kNoZoneSlot = ~std::uint32_t{0};
} // namespace

GhbPrefetcher::GhbPrefetcher(const GhbPrefetcherParams &params)
    : params_(params), ghb_(params.ghbSize),
      index_(params.indexSize)
{
    if (params_.ghbSize == 0 || params_.indexSize == 0)
        fatal("GHB prefetcher needs nonzero buffer and index sizes");
    setAggressiveness(params_.initialLevel);
    deltas_.reserve(params_.maxHistory);

    if ((params_.ghbSize & (params_.ghbSize - 1)) == 0)
        slotMask_ = params_.ghbSize - 1;

    // Zone map sized to the next power of two >= 2x the index table, so
    // the load factor stays at or below one half.
    std::size_t cap = 8;
    unsigned bits = 3;
    while (cap < 2 * static_cast<std::size_t>(params_.indexSize)) {
        cap *= 2;
        ++bits;
    }
    zoneMap_.assign(cap, kNoZoneSlot);
    zoneHashShift_ = 64 - bits;
}

void
GhbPrefetcher::rebuildZoneMap()
{
    std::fill(zoneMap_.begin(), zoneMap_.end(), kNoZoneSlot);
    const std::size_t mask = zoneMap_.size() - 1;
    for (std::size_t i = 0; i < index_.size(); ++i) {
        if (!index_[i].valid)
            continue;
        std::size_t h = hashZone(index_[i].zone);
        while (zoneMap_[h] != kNoZoneSlot)
            h = (h + 1) & mask;
        zoneMap_[h] = static_cast<std::uint32_t>(i);
    }
}

void
GhbPrefetcher::reset()
{
    for (auto &e : ghb_)
        e = GhbEntry{};
    for (auto &e : index_)
        e = IndexEntry{};
    nextSeq_ = 1;
    tick_ = 0;
    std::fill(zoneMap_.begin(), zoneMap_.end(), kNoZoneSlot);
}

bool
GhbPrefetcher::seqLive(std::uint64_t seq) const
{
    // Sequence numbers start at 1; slot seq % ghbSize is overwritten once
    // ghbSize newer entries have been pushed.
    return seq != 0 && seq < nextSeq_ && nextSeq_ - seq <= ghb_.size();
}

GhbPrefetcher::IndexEntry *
GhbPrefetcher::findZone(std::uint64_t zone)
{
    const std::size_t mask = zoneMap_.size() - 1;
    for (std::size_t h = hashZone(zone);; h = (h + 1) & mask) {
        const std::uint32_t slot = zoneMap_[h];
        if (slot == kNoZoneSlot)
            return nullptr;
        IndexEntry &e = index_[slot];
        if (e.valid && e.zone == zone)
            return &e;
    }
}

GhbPrefetcher::IndexEntry &
GhbPrefetcher::allocateZone(std::uint64_t zone)
{
    IndexEntry *victim = &index_.front();
    for (auto &e : index_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    *victim = IndexEntry{};
    victim->valid = true;
    victim->zone = zone;
    // The allocation scan is already O(indexSize), so rebuilding the
    // lookup map here keeps the same complexity while the per-miss
    // findZone stays O(1).
    rebuildZoneMap();
    return *victim;
}

void
GhbPrefetcher::audit() const
{
    Prefetcher::audit();
    for (std::size_t i = 0; i < index_.size(); ++i) {
        const IndexEntry &e = index_[i];
        if (!e.valid)
            continue;
        FDP_ASSERT(e.lastUse <= tick_,
                   "%s: index entry %zu last used at tick %llu, after "
                   "current tick %llu",
                   auditName(), i,
                   static_cast<unsigned long long>(e.lastUse),
                   static_cast<unsigned long long>(tick_));
        FDP_ASSERT(e.headSeq < nextSeq_,
                   "%s: index entry %zu heads at future sequence %llu",
                   auditName(), i,
                   static_cast<unsigned long long>(e.headSeq));
        for (std::size_t j = 0; j < i; ++j)
            FDP_ASSERT(!index_[j].valid || index_[j].zone != e.zone,
                       "%s: zone %llu indexed by entries %zu and %zu",
                       auditName(),
                       static_cast<unsigned long long>(e.zone), j, i);
    }

    // Link-pointer acyclicity: every live entry's predecessor link must
    // point strictly backwards, so any walk monotonically decreases the
    // sequence number and terminates.
    const std::uint64_t lo =
        nextSeq_ > ghb_.size() ? nextSeq_ - ghb_.size() : 1;
    for (std::uint64_t seq = lo; seq < nextSeq_; ++seq) {
        const GhbEntry &e = ghb_[slotOf(seq)];
        if (e.hasPrev) {
            FDP_ASSERT(e.prevSeq != 0 && e.prevSeq < seq,
                       "%s: GHB entry %llu links forward to %llu (cycle)",
                       auditName(), static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(e.prevSeq));
            if (seqLive(e.prevSeq))
                FDP_ASSERT(e.delta ==
                               e.block - ghb_[slotOf(e.prevSeq)].block,
                           "%s: GHB entry %llu caches delta %lld, buffer "
                           "says %lld",
                           auditName(),
                           static_cast<unsigned long long>(seq),
                           static_cast<long long>(e.delta),
                           static_cast<long long>(
                               e.block - ghb_[slotOf(e.prevSeq)].block));
        }
    }

    // Zone-map consistency: the derived lookup structure holds exactly
    // the valid index entries, each findable from its hash position.
    std::size_t mapped = 0;
    const std::size_t mask = zoneMap_.size() - 1;
    for (const std::uint32_t slot : zoneMap_) {
        if (slot == kNoZoneSlot)
            continue;
        ++mapped;
        FDP_ASSERT(slot < index_.size() && index_[slot].valid,
                   "%s: zone map points at dead index slot %u",
                   auditName(), slot);
    }
    std::size_t valid = 0;
    for (std::size_t i = 0; i < index_.size(); ++i) {
        if (!index_[i].valid)
            continue;
        ++valid;
        bool found = false;
        for (std::size_t h = hashZone(index_[i].zone);
             zoneMap_[h] != kNoZoneSlot; h = (h + 1) & mask) {
            if (zoneMap_[h] == i) {
                found = true;
                break;
            }
        }
        FDP_ASSERT(found, "%s: index entry %zu (zone %llu) missing from "
                   "the zone map", auditName(), i,
                   static_cast<unsigned long long>(index_[i].zone));
    }
    FDP_ASSERT(mapped == valid,
               "%s: zone map holds %zu slots for %zu valid entries",
               auditName(), mapped, valid);
}

template <typename Self, typename Io>
void
GhbPrefetcher::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.u8(self.level_, kMinAggrLevel, kMaxAggrLevel, "level");
    io.u64(self.nextSeq_);
    io.u64(self.tick_);
    io.fixedU32(self.ghb_.size(), "GHB holds");
    for (auto &e : self.ghb_) {
        io.i64(e.block);
        io.u64(e.prevSeq);
        io.u8(e.hasPrev);
    }
    io.fixedU32(self.index_.size(), "index holds");
    for (auto &e : self.index_) {
        io.u8(e.valid);
        io.u64(e.zone);
        io.u64(e.headSeq);
        io.u64(e.lastUse);
    }
    io.end();
}

void
GhbPrefetcher::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
GhbPrefetcher::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);

    // Rebuild the derived state the snapshot does not carry: the cached
    // per-entry deltas (only meaningful while the predecessor is live)
    // and the zone lookup map.
    const std::uint64_t lo =
        nextSeq_ > ghb_.size() ? nextSeq_ - ghb_.size() : 1;
    for (std::uint64_t seq = lo; seq < nextSeq_; ++seq) {
        GhbEntry &e = ghb_[slotOf(seq)];
        e.delta = e.hasPrev && seqLive(e.prevSeq)
                      ? e.block - ghb_[slotOf(e.prevSeq)].block
                      : 0;
    }
    rebuildZoneMap();
}

void
GhbPrefetcher::doObserve(const PrefetchObservation &obs,
                         std::vector<BlockAddr> &out, std::size_t budget)
{
    if (!obs.miss)
        return;  // the C/DC prefetcher trains on the L2 miss stream

    ++tick_;
    const auto block = static_cast<std::int64_t>(obs.block);
    const std::uint64_t zone = obs.block >> params_.czoneShift;

    IndexEntry *idx = findZone(zone);
    if (!idx)
        idx = &allocateZone(zone);
    idx->lastUse = tick_;

    // Push this miss into the GHB, linking it to the zone's previous miss.
    const std::uint64_t seq = nextSeq_++;
    GhbEntry &slot = ghb_[slotOf(seq)];
    slot.block = block;
    slot.hasPrev = seqLive(idx->headSeq);
    slot.prevSeq = idx->headSeq;
    slot.delta = slot.hasPrev ? block - ghb_[slotOf(idx->headSeq)].block
                              : 0;
    idx->headSeq = seq;

    // Walk the zone's live link chain, collecting the cached deltas
    // newest-first. Entries are immutable until overwritten, so each
    // cached delta equals the difference of the two (still live) blocks
    // it was computed from -- no need to materialize the address
    // history itself.
    deltas_.clear();
    std::uint64_t cur = seq;
    std::size_t depth = 1;  // addresses visited (the new miss counts)
    for (;;) {
        const GhbEntry &e = ghb_[slotOf(cur)];
        if (depth >= params_.maxHistory || !e.hasPrev)
            break;
        if (!seqLive(e.prevSeq))
            break;
        deltas_.push_back(e.delta);
        cur = e.prevSeq;
        ++depth;
    }
    if (depth < 4)
        return;  // need at least 3 deltas to correlate a pair

    // Chronological order: deltas_[i] = addr[i+1] - addr[i].
    std::reverse(deltas_.begin(), deltas_.end());

    const std::size_t n = deltas_.size();
    const std::int64_t key1 = deltas_[n - 2];
    const std::int64_t key2 = deltas_[n - 1];

    // Find the most recent earlier occurrence of the (key1, key2) pair.
    std::size_t match = n;  // sentinel: no match
    for (std::size_t k = n - 2; k-- > 0;) {
        if (deltas_[k] == key1 && deltas_[k + 1] == key2) {
            match = k + 1;  // index of the second delta of the pair
            break;
        }
    }
    if (match == n)
        return;

    // Replay the deltas that followed the matched pair, cycling through
    // them until `degree` prefetch addresses have been produced.
    const unsigned deg = static_cast<unsigned>(
        std::min<std::size_t>(degree(), budget));
    const std::size_t replay_begin = match + 1;
    const std::size_t replay_len = n - replay_begin;
    if (replay_len == 0)
        return;

    std::int64_t addr = block;
    for (unsigned i = 0; i < deg; ++i) {
        addr += deltas_[replay_begin + (i % replay_len)];
        if (addr < 0)
            break;
        out.push_back(static_cast<BlockAddr>(addr));
    }
}

} // namespace fdp
