#include "prefetch/stream_prefetcher.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "sim/logging.hh"

namespace fdp
{

StreamPrefetcher::StreamPrefetcher(const StreamPrefetcherParams &params)
    : params_(params), entries_(params.numStreams)
{
    if (params_.numStreams == 0)
        fatal("stream prefetcher needs at least one tracking entry");
    setAggressiveness(params_.initialLevel);
    // Buckets of 2^trainShift_ >= 2*trainWindow+1 blocks; a power-of-two
    // chain table with at least two heads per entry.
    trainShift_ = static_cast<unsigned>(
        std::bit_width(2 * std::uint64_t{params_.trainWindow}));
    trainHead_.resize(std::bit_ceil(2 * entries_.size()));
    trainHashShift_ =
        64 - static_cast<unsigned>(std::countr_zero(trainHead_.size()));
    rebuildIndexes();
}

void
StreamPrefetcher::reset()
{
    for (auto &e : entries_)
        e = Entry{};
    tick_ = 0;
    rebuildIndexes();
}

void
StreamPrefetcher::rebuildIndexes()
{
    const auto n = static_cast<std::uint32_t>(entries_.size());
    links_.assign(n, Links{});
    monitorIdx_.clear();
    freeIdx_.clear();
    std::fill(trainHead_.begin(), trainHead_.end(), kNil);
    lruHead_ = lruTail_ = kNil;
    std::vector<std::uint32_t> valid;
    for (std::uint32_t i = 0; i < n; ++i) {
        switch (entries_[i].state) {
          case State::Invalid:
            freeIdx_.push_back(i);
            continue;
          case State::MonitorRequest:
            monitorIdx_.push_back(i);
            break;
          case State::Allocated:
          case State::Training:
            trainInsert(i);
            break;
        }
        valid.push_back(i);
    }
    std::reverse(freeIdx_.begin(), freeIdx_.end());
    // Index order breaks lastUse ties, as in a first-minimum scan.
    std::stable_sort(valid.begin(), valid.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return entries_[a].lastUse < entries_[b].lastUse;
                     });
    for (const std::uint32_t i : valid)
        lruAppend(i);
}

void
StreamPrefetcher::lruUnlink(std::uint32_t idx)
{
    Links &l = links_[idx];
    (l.lruPrev != kNil ? links_[l.lruPrev].lruNext : lruHead_) = l.lruNext;
    (l.lruNext != kNil ? links_[l.lruNext].lruPrev : lruTail_) = l.lruPrev;
    l.lruPrev = l.lruNext = kNil;
}

void
StreamPrefetcher::lruAppend(std::uint32_t idx)
{
    Links &l = links_[idx];
    l.lruPrev = lruTail_;
    l.lruNext = kNil;
    (lruTail_ != kNil ? links_[lruTail_].lruNext : lruHead_) = idx;
    lruTail_ = idx;
}

void
StreamPrefetcher::touch(std::uint32_t idx)
{
    entries_[idx].lastUse = tick_;
    if (idx != lruTail_) {
        lruUnlink(idx);
        lruAppend(idx);
    }
}

std::size_t
StreamPrefetcher::trainSlot(std::int64_t bucket) const
{
    // Fibonacci hashing: the top bits of the golden-ratio product.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(bucket) * 0x9E3779B97F4A7C15ull) >>
        trainHashShift_);
}

void
StreamPrefetcher::trainInsert(std::uint32_t idx)
{
    std::uint32_t &head =
        trainHead_[trainSlot(entries_[idx].firstMiss >> trainShift_)];
    Links &l = links_[idx];
    l.trainPrev = kNil;
    l.trainNext = head;
    if (head != kNil)
        links_[head].trainPrev = idx;
    head = idx;
}

void
StreamPrefetcher::trainRemove(std::uint32_t idx)
{
    Links &l = links_[idx];
    if (l.trainPrev != kNil)
        links_[l.trainPrev].trainNext = l.trainNext;
    else
        trainHead_[trainSlot(entries_[idx].firstMiss >> trainShift_)] =
            l.trainNext;
    if (l.trainNext != kNil)
        links_[l.trainNext].trainPrev = l.trainPrev;
    l.trainPrev = l.trainNext = kNil;
}

std::uint32_t
StreamPrefetcher::findTrainEntry(std::int64_t block) const
{
    const auto w = static_cast<std::int64_t>(params_.trainWindow);
    std::uint32_t best = kNil;
    for (std::int64_t b = (block - w) >> trainShift_;
         b <= (block + w) >> trainShift_; ++b) {
        for (std::uint32_t i = trainHead_[trainSlot(b)]; i != kNil;
             i = links_[i].trainNext)
            if (i < best && inTrainWindow(entries_[i], block))
                best = i;
    }
    return best;
}

void
StreamPrefetcher::addMonitor(unsigned idx)
{
    monitorIdx_.insert(
        std::lower_bound(monitorIdx_.begin(), monitorIdx_.end(), idx), idx);
}

void
StreamPrefetcher::removeMonitor(unsigned idx)
{
    const auto it =
        std::lower_bound(monitorIdx_.begin(), monitorIdx_.end(), idx);
    if (it != monitorIdx_.end() && *it == idx)
        monitorIdx_.erase(it);
}

bool
StreamPrefetcher::inMonitorRegion(const Entry &e, std::int64_t block)
{
    const std::int64_t lo = std::min(e.startPtr, e.endPtr);
    const std::int64_t hi = std::max(e.startPtr, e.endPtr);
    return block >= lo && block <= hi;
}

bool
StreamPrefetcher::inTrainWindow(const Entry &e, std::int64_t block) const
{
    return std::llabs(block - e.firstMiss) <=
           static_cast<std::int64_t>(params_.trainWindow);
}

unsigned
StreamPrefetcher::effectiveDistance() const
{
    const unsigned active = std::max(1u, numActiveStreams());
    const unsigned share =
        std::max(degree(), params_.queueShareBudget / active);
    return std::min(distance(), share);
}

void
StreamPrefetcher::issueFromEntry(Entry &e, std::vector<BlockAddr> &out,
                                 std::size_t budget)
{
    const std::int64_t n = std::min<std::int64_t>(
        degree(), static_cast<std::int64_t>(
                      std::min<std::size_t>(budget, kMaxAggrLevel * 64)));
    const std::int64_t dist = effectiveDistance();
    if (n == 0)
        return;

    // If the distance was lowered (FDP throttling down), pull the end
    // pointer back so new requests stay within the new distance of the
    // demand stream; already-issued blocks beyond it are simply
    // re-covered later and dropped as cache hits.
    if (std::llabs(e.endPtr - e.startPtr) > dist)
        e.endPtr = e.startPtr + e.dir * dist;

    for (std::int64_t i = 1; i <= n; ++i) {
        const std::int64_t block = e.endPtr + e.dir * i;
        if (block < 0)
            break;  // descending stream ran off the address space
        out.push_back(static_cast<BlockAddr>(block));
    }

    // Slide the monitored region: until it spans Prefetch Distance only
    // the end pointer advances; afterwards both pointers advance so that
    // P stays Prefetch Distance ahead of the demand stream.
    const std::int64_t size = std::llabs(e.endPtr - e.startPtr);
    e.endPtr += e.dir * n;
    if (size >= dist)
        e.startPtr += e.dir * n;
}

void
StreamPrefetcher::startRamp(Entry &e, std::int64_t region_start,
                            std::int64_t ramp_from,
                            std::vector<BlockAddr> &out, std::size_t budget)
{
    // The start-up window is what establishes the prefetch distance:
    // degree-per-trigger alone can never open a gap because triggers
    // arrive once per consumed block (paper footnote 5).
    const std::int64_t startup = std::min<std::int64_t>(
        effectiveDistance(),
        static_cast<std::int64_t>(std::min<std::size_t>(budget, 64)));
    e.startPtr = region_start;
    for (std::int64_t i = 1; i <= startup; ++i) {
        const std::int64_t pf = ramp_from + e.dir * i;
        if (pf < 0)
            break;
        out.push_back(static_cast<BlockAddr>(pf));
    }
    e.endPtr = ramp_from + e.dir * startup;
}

unsigned
StreamPrefetcher::allocateEntry()
{
    if (!freeIdx_.empty()) {
        const std::uint32_t i = freeIdx_.back();
        freeIdx_.pop_back();
        return i;
    }
    const std::uint32_t victim = lruHead_;
    lruUnlink(victim);
    if (entries_[victim].state == State::MonitorRequest)
        removeMonitor(victim);
    else
        trainRemove(victim);
    return victim;
}

void
StreamPrefetcher::doObserve(const PrefetchObservation &obs,
                            std::vector<BlockAddr> &out,
                            std::size_t budget)
{
    const auto block = static_cast<std::int64_t>(obs.block);
    ++tick_;

    // Any demand access (hit or miss) inside a monitored region triggers
    // the next batch of prefetch requests. A demand *miss* that has
    // overtaken the region (the ramp was starved of queue budget, or
    // prefetches were dropped) re-anchors the stream and restarts the
    // ramp - otherwise the entry silently dies and coverage collapses.
    // Both monitor-state scans walk monitorIdx_, which lists exactly
    // the Monitor-and-Request entries in table order: same visit order
    // as a full scan, without touching the other states' entries.
    const auto w = static_cast<std::int64_t>(params_.trainWindow);
    for (const std::uint32_t i : monitorIdx_) {
        Entry &e = entries_[i];
        if (inMonitorRegion(e, block)) {
            touch(i);
            issueFromEntry(e, out, budget);
            return;
        }
        const std::int64_t front = e.dir > 0
                                       ? std::max(e.startPtr, e.endPtr)
                                       : std::min(e.startPtr, e.endPtr);
        const std::int64_t overshoot = (block - front) * e.dir;
        if (obs.miss && overshoot > 0 && overshoot <= w) {
            touch(i);
            startRamp(e, block, block, out, budget);
            return;
        }
    }

    if (!obs.miss)
        return;  // hits outside monitored regions do not train streams

    // A miss trailing just behind an existing monitored stream belongs
    // to that stream (a demand catching a still-in-flight prefetch
    // behind the start pointer): it must not allocate a duplicate
    // tracking entry, which would train a redundant stream and flood
    // the prefetch request queue with copies.
    for (const std::uint32_t i : monitorIdx_) {
        Entry &e = entries_[i];
        const std::int64_t lo = std::min(e.startPtr, e.endPtr) - w;
        const std::int64_t hi = std::max(e.startPtr, e.endPtr) + w;
        if (block >= lo && block <= hi) {
            touch(i);
            return;
        }
    }

    // Misses train an existing Allocated/Training entry (the lowest
    // index whose window holds the miss)...
    const std::uint32_t ti = findTrainEntry(block);
    if (ti != kNil) {
        Entry &e = entries_[ti];
        touch(ti);
        if (block == e.firstMiss || block == e.lastMiss)
            return;  // repeated miss on an in-flight block: no information

        if (e.state == State::Allocated) {
            e.dir = block > e.firstMiss ? 1 : -1;
            e.lastMiss = block;
            e.state = State::Training;
            return;
        }

        // Training: a second delta in the same direction confirms the
        // stream; a reversal restarts training from this miss.
        const int dir2 = block > e.lastMiss ? 1 : -1;
        if (dir2 != e.dir) {
            e.dir = block > e.firstMiss ? 1 : -1;
            e.lastMiss = block;
            return;
        }

        e.state = State::MonitorRequest;
        trainRemove(ti);
        addMonitor(ti);
        // The region begins at the allocating miss (paper footnote 5).
        startRamp(e, e.firstMiss, block, out, budget);
        return;
    }

    // ...or allocate a fresh entry when no tracking entry matches.
    const unsigned vi = allocateEntry();
    Entry &e = entries_[vi];
    e = Entry{};
    e.state = State::Allocated;
    e.firstMiss = block;
    e.lastMiss = block;
    e.lastUse = tick_;
    lruAppend(vi);
    trainInsert(vi);
}

void
StreamPrefetcher::audit() const
{
    Prefetcher::audit();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        FDP_ASSERT(static_cast<std::uint8_t>(e.state) <=
                       static_cast<std::uint8_t>(State::MonitorRequest),
                   "%s: entry %zu in illegal state %u", auditName(), i,
                   static_cast<unsigned>(e.state));
        if (e.state == State::Invalid)
            continue;
        FDP_ASSERT(e.lastUse <= tick_,
                   "%s: entry %zu last used at tick %llu, after current "
                   "tick %llu",
                   auditName(), i,
                   static_cast<unsigned long long>(e.lastUse),
                   static_cast<unsigned long long>(tick_));
        if (e.state == State::Allocated)
            continue;
        FDP_ASSERT(e.dir == 1 || e.dir == -1,
                   "%s: trained entry %zu has direction %d", auditName(),
                   i, e.dir);
        if (e.state == State::MonitorRequest)
            FDP_ASSERT((e.endPtr - e.startPtr) * e.dir >= 0,
                       "%s: entry %zu monitors [%lld, %lld] against its "
                       "direction %d",
                       auditName(), i,
                       static_cast<long long>(e.startPtr),
                       static_cast<long long>(e.endPtr), e.dir);
    }

    // Monitor-list consistency: recount the table and require the
    // derived sorted index list to name exactly the monitoring entries.
    std::size_t pos = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].state != State::MonitorRequest)
            continue;
        FDP_ASSERT(pos < monitorIdx_.size() && monitorIdx_[pos] == i,
                   "%s: monitoring entry %zu missing from the monitor "
                   "list", auditName(), i);
        ++pos;
    }
    FDP_ASSERT(pos == monitorIdx_.size(),
               "%s: monitor list holds %zu indices for %zu monitoring "
               "entries", auditName(), monitorIdx_.size(), pos);

    // Free list: exactly the Invalid entries, highest index first.
    pos = freeIdx_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].state != State::Invalid)
            continue;
        FDP_ASSERT(pos > 0 && freeIdx_[pos - 1] == i,
                   "%s: invalid entry %zu missing from the free list",
                   auditName(), i);
        --pos;
    }
    FDP_ASSERT(pos == 0,
               "%s: free list holds %zu indices beyond the invalid "
               "entries", auditName(), pos);

    // LRU list: every valid entry once, in (lastUse, index) order.
    std::vector<bool> seen(entries_.size(), false);
    std::size_t listed = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t i = lruHead_; i != kNil; i = links_[i].lruNext) {
        FDP_ASSERT(i < entries_.size() && !seen[i],
                   "%s: LRU list revisits or overruns at entry %u",
                   auditName(), i);
        seen[i] = true;
        const Entry &e = entries_[i];
        FDP_ASSERT(e.state != State::Invalid,
                   "%s: LRU list holds invalid entry %u", auditName(), i);
        FDP_ASSERT(links_[i].lruPrev == prev,
                   "%s: LRU entry %u back link names %u", auditName(), i,
                   links_[i].lruPrev);
        FDP_ASSERT(prev == kNil || entries_[prev].lastUse < e.lastUse ||
                       (entries_[prev].lastUse == e.lastUse && prev < i),
                   "%s: LRU list puts entry %u (tick %llu) before entry "
                   "%u (tick %llu)",
                   auditName(), prev,
                   static_cast<unsigned long long>(
                       prev == kNil ? 0 : entries_[prev].lastUse),
                   i, static_cast<unsigned long long>(e.lastUse));
        prev = i;
        ++listed;
    }
    FDP_ASSERT(lruTail_ == prev && listed + freeIdx_.size() ==
                                       entries_.size(),
               "%s: LRU list holds %zu of %zu valid entries (tail %u, "
               "expected %u)",
               auditName(), listed, entries_.size() - freeIdx_.size(),
               lruTail_, prev);

    // Training index: every Allocated/Training entry once, chained
    // under its first miss's bucket.
    std::fill(seen.begin(), seen.end(), false);
    std::size_t chained = 0;
    for (std::size_t slot = 0; slot < trainHead_.size(); ++slot) {
        prev = kNil;
        for (std::uint32_t i = trainHead_[slot]; i != kNil;
             i = links_[i].trainNext) {
            FDP_ASSERT(i < entries_.size() && !seen[i],
                       "%s: training chain %zu revisits or overruns at "
                       "entry %u",
                       auditName(), slot, i);
            seen[i] = true;
            const Entry &e = entries_[i];
            FDP_ASSERT(e.state == State::Allocated ||
                           e.state == State::Training,
                       "%s: training chain %zu holds entry %u in state %u",
                       auditName(), slot, i,
                       static_cast<unsigned>(e.state));
            FDP_ASSERT(trainSlot(e.firstMiss >> trainShift_) == slot,
                       "%s: entry %u chained in slot %zu, but its first "
                       "miss hashes to slot %zu",
                       auditName(), i, slot,
                       trainSlot(e.firstMiss >> trainShift_));
            FDP_ASSERT(links_[i].trainPrev == prev,
                       "%s: training entry %u back link names %u",
                       auditName(), i, links_[i].trainPrev);
            prev = i;
            ++chained;
        }
    }
    const auto training = static_cast<std::size_t>(std::count_if(
        entries_.begin(), entries_.end(), [](const Entry &e) {
            return e.state == State::Allocated ||
                   e.state == State::Training;
        }));
    FDP_ASSERT(chained == training,
               "%s: training index holds %zu entries for %zu "
               "Allocated/Training entries",
               auditName(), chained, training);
}

template <typename Self, typename Io>
void
StreamPrefetcher::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.u8(self.level_, kMinAggrLevel, kMaxAggrLevel, "level");
    io.u64(self.tick_);
    io.fixedU32(self.entries_.size(), "table holds");
    for (std::size_t i = 0; i < self.entries_.size(); ++i) {
        auto &e = self.entries_[i];
        io.u8(e.state);
        io.i64(e.dir);
        io.i64(e.firstMiss);
        io.i64(e.lastMiss);
        io.i64(e.startPtr);
        io.i64(e.endPtr);
        io.u64(e.lastUse);
        // The derived indexes are rebuilt from these fields, so reject
        // what no run produces: a state outside the FSM, a trained
        // direction other than +/-1, or a stamp from a future tick (the
        // LRU list relies on new stamps exceeding every restored one).
        io.check(e.state <= State::MonitorRequest,
                 "entry %zu in state %u, outside the tracking FSM", i,
                 static_cast<unsigned>(e.state));
        const bool trained = e.state == State::Training ||
                             e.state == State::MonitorRequest;
        io.check(!trained || e.dir == 1 || e.dir == -1,
                 "trained entry %zu has direction %d", i, e.dir);
        io.check(e.state == State::Invalid || e.lastUse <= self.tick_,
                 "entry %zu last used at tick %llu, after the "
                 "prefetcher's tick %llu",
                 i, static_cast<unsigned long long>(e.lastUse),
                 static_cast<unsigned long long>(self.tick_));
    }
    io.end();
}

void
StreamPrefetcher::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
StreamPrefetcher::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
    rebuildIndexes();
}

unsigned
StreamPrefetcher::numActiveStreams() const
{
    unsigned n = 0;
    for (const std::uint32_t i : monitorIdx_)
        if (tick_ - entries_[i].lastUse <= params_.activityWindow)
            ++n;
    return n;
}

unsigned
StreamPrefetcher::numMonitoringStreams() const
{
    return static_cast<unsigned>(monitorIdx_.size());
}

} // namespace fdp
