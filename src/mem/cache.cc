#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fdp
{

SetAssocCache::SetAssocCache(const CacheParams &params)
    : params_(params), snapName_("cache/" + params.name)
{
    if (params_.assoc == 0 || params_.assoc > 254)
        fatal("%s: associativity %u unsupported", params_.name.c_str(),
              params_.assoc);
    if (params_.numCores == 0)
        fatal("%s: needs at least one owning core", params_.name.c_str());
    const std::size_t blocks = params_.sizeBytes / kBlockBytes;
    if (blocks == 0 || blocks % params_.assoc != 0)
        fatal("%s: size %zu not divisible into %u-way sets",
              params_.name.c_str(), params_.sizeBytes, params_.assoc);
    const std::size_t num_sets = blocks / params_.assoc;
    if ((num_sets & (num_sets - 1)) != 0)
        fatal("%s: number of sets %zu must be a power of two",
              params_.name.c_str(), num_sets);

    lines_.resize(blocks);
    sets_.resize(num_sets);
}

std::size_t
SetAssocCache::setIndex(BlockAddr block) const
{
    return static_cast<std::size_t>(block & (sets_.size() - 1));
}

int
SetAssocCache::findWay(std::size_t base, BlockAddr block) const
{
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &l = lines_[base + w];
        if ((l.flags & kValid) != 0 && l.tag == block)
            return static_cast<int>(w);
    }
    return -1;
}

void
SetAssocCache::unlink(SetLinks &set, std::size_t base, std::uint8_t way)
{
    Line &l = lines_[base + way];
    if (l.prev != kNoWay)
        lines_[base + l.prev].next = l.next;
    else
        set.lru = l.next;
    if (l.next != kNoWay)
        lines_[base + l.next].prev = l.prev;
    else
        set.mru = l.prev;
}

void
SetAssocCache::appendMru(SetLinks &set, std::size_t base, std::uint8_t way)
{
    Line &l = lines_[base + way];
    l.prev = set.mru;
    l.next = kNoWay;
    if (set.mru != kNoWay)
        lines_[base + set.mru].next = way;
    else
        set.lru = way;
    set.mru = way;
}

void
SetAssocCache::linkAtDepth(SetLinks &set, std::size_t base,
                           std::uint8_t way, unsigned depth,
                           unsigned chainLen)
{
    if (depth >= chainLen) {
        appendMru(set, base, way);
        return;
    }
    Line &l = lines_[base + way];
    if (depth == 0) {
        l.prev = kNoWay;
        l.next = set.lru;
        lines_[base + set.lru].prev = way;
        set.lru = way;
        return;
    }
    // Splice in after the node currently at depth-1: the new line then
    // has `depth` less-recent predecessors, matching a vector insert at
    // index `depth` in the old recency-stack representation.
    std::uint8_t before = set.lru;
    for (unsigned i = 1; i < depth; ++i)
        before = lines_[base + before].next;
    l.prev = before;
    l.next = lines_[base + before].next;
    lines_[base + before].next = way;
    lines_[base + l.next].prev = way;
}

CacheAccessResult
SetAssocCache::access(BlockAddr block, bool isWrite)
{
    const std::size_t s = setIndex(block);
    const std::size_t base = s * params_.assoc;
    const int w = findWay(base, block);
    if (w < 0)
        return {};

    Line &l = lines_[base + static_cast<std::size_t>(w)];
    CacheAccessResult result;
    result.hit = true;
    result.hitPrefetched = (l.flags & kPref) != 0;
    result.owner = l.owner;
    l.flags &= static_cast<std::uint8_t>(~kPref);
    if (isWrite)
        l.flags |= kDirty;
    SetLinks &set = sets_[s];
    if (set.mru != w) {
        unlink(set, base, static_cast<std::uint8_t>(w));
        appendMru(set, base, static_cast<std::uint8_t>(w));
    }
    return result;
}

bool
SetAssocCache::probe(BlockAddr block) const
{
    return findWay(setIndex(block) * params_.assoc, block) >= 0;
}

CacheVictim
SetAssocCache::insert(BlockAddr block, bool prefBit, InsertPos pos,
                      bool dirty, CoreId owner)
{
    const std::size_t s = setIndex(block);
    const std::size_t base = s * params_.assoc;
    if (findWay(base, block) >= 0)
        panic("%s: inserting block already present", params_.name.c_str());

    SetLinks &set = sets_[s];
    CacheVictim victim;
    std::uint8_t way;
    if (set.used == params_.assoc) {
        // Set full: evict the LRU way and reuse it.
        way = set.lru;
        unlink(set, base, way);
        const Line &v = lines_[base + way];
        victim.valid = true;
        victim.block = v.tag;
        victim.prefBit = (v.flags & kPref) != 0;
        victim.dirty = (v.flags & kDirty) != 0;
        victim.owner = v.owner;
    } else {
        way = 0;
        while ((lines_[base + way].flags & kValid) != 0)
            ++way;
        ++set.used;
    }

    Line &l = lines_[base + way];
    l.tag = block;
    l.flags = static_cast<std::uint8_t>(
        kValid | (prefBit ? kPref : 0) | (dirty ? kDirty : 0));
    l.owner = owner;

    const unsigned chain_len = set.used - 1u;
    const unsigned depth =
        std::min(insertStackIndex(pos, params_.assoc), chain_len);
    linkAtDepth(set, base, way, depth, chain_len);
    return victim;
}

bool
SetAssocCache::markDirty(BlockAddr block)
{
    const std::size_t base = setIndex(block) * params_.assoc;
    const int w = findWay(base, block);
    if (w < 0)
        return false;
    lines_[base + static_cast<std::size_t>(w)].flags |= kDirty;
    return true;
}

CacheVictim
SetAssocCache::invalidate(BlockAddr block)
{
    const std::size_t s = setIndex(block);
    const std::size_t base = s * params_.assoc;
    const int w = findWay(base, block);
    if (w < 0)
        return {};

    Line &l = lines_[base + static_cast<std::size_t>(w)];
    CacheVictim victim;
    victim.valid = true;
    victim.block = l.tag;
    victim.prefBit = (l.flags & kPref) != 0;
    victim.dirty = (l.flags & kDirty) != 0;
    victim.owner = l.owner;

    SetLinks &set = sets_[s];
    unlink(set, base, static_cast<std::uint8_t>(w));
    l = Line{};
    --set.used;
    return victim;
}

int
SetAssocCache::stackDepth(BlockAddr block) const
{
    const std::size_t s = setIndex(block);
    const std::size_t base = s * params_.assoc;
    const int w = findWay(base, block);
    if (w < 0)
        return -1;
    int depth = 0;
    for (std::uint8_t cur = sets_[s].lru; cur != kNoWay;
         cur = lines_[base + cur].next) {
        if (cur == w)
            return depth;
        ++depth;
    }
    panic("%s: valid way missing from recency stack", params_.name.c_str());
}

std::size_t
SetAssocCache::occupancy() const
{
    std::size_t n = 0;
    for (const auto &set : sets_)
        n += set.used;
    return n;
}

void
SetAssocCache::audit() const
{
    for (std::size_t s = 0; s < sets_.size(); ++s) {
        const SetLinks &set = sets_[s];
        const std::size_t base = s * params_.assoc;
        FDP_ASSERT(set.used <= params_.assoc,
                   "%s: set %zu uses %u of %u ways", auditName(), s,
                   set.used, params_.assoc);

        // Walk the recency chain LRU -> MRU, capped one past the
        // associativity so a cyclic chain still terminates and reports
        // a length mismatch instead of hanging the audit.
        std::vector<std::uint8_t> order;
        std::uint8_t cur = set.lru;
        while (cur != kNoWay && order.size() <= params_.assoc) {
            FDP_ASSERT(cur < params_.assoc,
                       "%s: set %zu stack names way %u of %u", auditName(),
                       s, cur, params_.assoc);
            order.push_back(cur);
            cur = lines_[base + cur].next;
        }
        FDP_ASSERT(order.size() == set.used,
                   "%s: set %zu recency stack holds %zu entries for %u "
                   "valid ways",
                   auditName(), s, order.size(), set.used);

        // The chain must be a permutation of the valid way indices with
        // consistent back links and endpoints.
        std::vector<bool> on_stack(params_.assoc, false);
        std::uint8_t expect_prev = kNoWay;
        for (const std::uint8_t w : order) {
            FDP_ASSERT(!on_stack[w],
                       "%s: set %zu stack lists way %u twice", auditName(),
                       s, w);
            on_stack[w] = true;
            const Line &l = lines_[base + w];
            FDP_ASSERT((l.flags & kValid) != 0,
                       "%s: set %zu stack lists invalid way %u",
                       auditName(), s, w);
            FDP_ASSERT(l.prev == expect_prev,
                       "%s: set %zu way %u back link names way %u",
                       auditName(), s, w, l.prev);
            expect_prev = w;
        }
        FDP_ASSERT(set.mru == expect_prev,
                   "%s: set %zu MRU endpoint names way %u", auditName(), s,
                   set.mru);

        unsigned valid_ways = 0;
        for (std::size_t w = 0; w < params_.assoc; ++w) {
            const Line &l = lines_[base + w];
            if ((l.flags & kValid) == 0) {
                FDP_ASSERT(!on_stack[w],
                           "%s: set %zu invalid way %zu is on the stack",
                           auditName(), s, w);
                continue;
            }
            ++valid_ways;
            FDP_ASSERT(on_stack[w],
                       "%s: set %zu valid way %zu missing from the stack",
                       auditName(), s, w);
            FDP_ASSERT(l.owner.index() < params_.numCores,
                       "%s: set %zu way %zu owned by core %u of %u",
                       auditName(), s, w, l.owner.index(),
                       params_.numCores);
            for (std::size_t o = 0; o < w; ++o) {
                const Line &other = lines_[base + o];
                FDP_ASSERT((other.flags & kValid) == 0 ||
                               other.tag != l.tag,
                           "%s: set %zu holds block %llu in ways %zu and "
                           "%zu",
                           auditName(), s,
                           static_cast<unsigned long long>(l.tag), o, w);
            }
            FDP_ASSERT(setIndex(l.tag) == s,
                       "%s: block %llu stored in set %zu but maps to set "
                       "%zu",
                       auditName(),
                       static_cast<unsigned long long>(l.tag), s,
                       setIndex(l.tag));
        }
        FDP_ASSERT(valid_ways == set.used,
                   "%s: set %zu has %u valid ways but used=%u",
                   auditName(), s, valid_ways, set.used);
    }
}

template <typename Self, typename Io>
void
SetAssocCache::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.fixedU32(self.sets_.size(), "sets");
    io.fixedU32(self.params_.assoc, "ways");
    for (auto &l : self.lines_) {
        io.u64(l.tag);
        io.u8(l.flags);
        io.u8(l.prev);
        io.u8(l.next);
        unsigned owner = l.owner.index();
        io.u8(owner);
        if constexpr (Io::kLoading)
            l.owner = CoreId{owner};
    }
    for (auto &set : self.sets_) {
        io.u8(set.lru);
        io.u8(set.mru);
        io.u8(set.used);
    }
    io.end();
}

void
SetAssocCache::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
SetAssocCache::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
    // insert()'s free-way walk and unlink()/linkAtDepth() index by these
    // links and counts unchecked: a bad one would reach past the set.
    for (std::size_t s = 0; s < sets_.size(); ++s)
        if (const char *defect = restoredSetDefect(s))
            fatal("snapshot: %s set %zu %s", params_.name.c_str(), s,
                  defect);
}

const char *
SetAssocCache::restoredSetDefect(std::size_t s) const
{
    const SetLinks &set = sets_[s];
    const std::size_t base = s * params_.assoc;
    unsigned valid = 0;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &l = lines_[base + w];
        if ((l.flags & kValid) == 0)
            continue;
        ++valid;
        if (l.owner.index() >= params_.numCores)
            return "has a line owned by a core out of range";
    }
    if (set.used != valid)
        return "has a used count that disagrees with its valid ways";
    // The recency chain must visit exactly the valid ways, LRU to MRU,
    // with consistent back links. A revisited way would need two
    // different back links, so the walk cannot cycle undetected.
    std::uint8_t prev = kNoWay;
    unsigned len = 0;
    for (std::uint8_t cur = set.lru; cur != kNoWay;
         cur = lines_[base + cur].next) {
        if (len == valid || cur >= params_.assoc)
            return "has a recency chain that runs past its valid ways";
        const Line &l = lines_[base + cur];
        if ((l.flags & kValid) == 0 || l.prev != prev)
            return "has a recency chain with a broken link";
        prev = cur;
        ++len;
    }
    if (len != valid || set.mru != prev)
        return "has a recency chain that misses a valid way";
    return nullptr;
}

void
SetAssocCache::clear()
{
    for (Line &l : lines_)
        l = Line{};
    for (SetLinks &set : sets_)
        set = SetLinks{};
}

} // namespace fdp
