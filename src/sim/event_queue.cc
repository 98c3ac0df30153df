#include "sim/event_queue.hh"

#include <utility>

#include "sim/logging.hh"

namespace fdp
{

void
EventQueue::siftUp(std::size_t i)
{
    const Entry e = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!earlier(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = e;
}

void
EventQueue::siftDown(std::size_t i)
{
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && earlier(heap_[child + 1], heap_[child]))
            ++child;
        if (!earlier(heap_[child], e))
            break;
        heap_[i] = heap_[child];
        i = child;
    }
    heap_[i] = e;
}

void
EventQueue::schedule(Cycle when, Callback fn)
{
    if (when < horizon_)
        panic("event scheduled at cycle %llu before horizon %llu",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(horizon_));
    std::uint32_t node;
    if (free_.empty()) {
        node = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
        free_.reserve(slab_.capacity());
    } else {
        node = free_.back();
        free_.pop_back();
    }
    slab_[node] = std::move(fn);
    heap_.push_back(Entry{when, nextSeq_++, node});
    siftUp(heap_.size() - 1);
}

void
EventQueue::serviceUntil(Cycle now)
{
    while (!heap_.empty() && heap_.front().when <= now) {
        const Entry top = heap_.front();
        heap_.front() = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0);
        horizon_ = top.when;
        ++serviced_;
        // Move the callback out before invoking it: the callback may
        // schedule new events, which recycles slab slots underneath it.
        Callback fn = std::move(slab_[top.node]);
        slab_[top.node] = nullptr;
        free_.push_back(top.node);
        fn();
    }
    if (now > horizon_)
        horizon_ = now;
}

Cycle
EventQueue::nextEventCycle() const
{
    return heap_.empty() ? kNoCycle : heap_.front().when;
}

void
EventQueue::reset()
{
    heap_.clear();
    slab_.clear();
    free_.clear();
    nextSeq_ = 0;
    serviced_ = 0;
    horizon_ = 0;
}

template <typename Self, typename Io>
void
EventQueue::snapFields(Self &self, Io &io)
{
    FDP_ASSERT(self.heap_.empty(),
               "%s: %zu events pending at a snapshot (not quiesced)",
               self.auditName(), self.heap_.size());
    io.begin(self.snapName());
    io.u64(self.horizon_);
    io.u64(self.nextSeq_);
    io.u64(self.serviced_);
    io.end();
}

void
EventQueue::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
EventQueue::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

void
EventQueue::audit() const
{
    for (std::size_t i = 1; i < heap_.size(); ++i)
        FDP_ASSERT(!earlier(heap_[i], heap_[(i - 1) / 2]),
                   "%s: pending events violate the heap ordering",
                   auditName());
    FDP_ASSERT(serviced_ + heap_.size() == nextSeq_,
               "%s: %llu serviced + %zu pending != %llu scheduled",
               auditName(), static_cast<unsigned long long>(serviced_),
               heap_.size(), static_cast<unsigned long long>(nextSeq_));
    FDP_ASSERT(heap_.size() + free_.size() == slab_.size(),
               "%s: %zu pending + %zu free slots != %zu slab slots",
               auditName(), heap_.size(), free_.size(), slab_.size());

    std::vector<bool> pending(slab_.size(), false);
    for (const Entry &ev : heap_) {
        FDP_ASSERT(ev.when >= horizon_,
                   "%s: event at cycle %llu is before horizon %llu",
                   auditName(), static_cast<unsigned long long>(ev.when),
                   static_cast<unsigned long long>(horizon_));
        FDP_ASSERT(ev.seq < nextSeq_,
                   "%s: event sequence %llu >= next sequence %llu",
                   auditName(), static_cast<unsigned long long>(ev.seq),
                   static_cast<unsigned long long>(nextSeq_));
        FDP_ASSERT(ev.node < slab_.size(),
                   "%s: event names slab slot %u of %zu", auditName(),
                   ev.node, slab_.size());
        FDP_ASSERT(!pending[ev.node],
                   "%s: two pending events share slab slot %u",
                   auditName(), ev.node);
        pending[ev.node] = true;
        FDP_ASSERT(static_cast<bool>(slab_[ev.node]),
                   "%s: pending event with no callback", auditName());
    }
    for (const std::uint32_t node : free_) {
        FDP_ASSERT(node < slab_.size(),
                   "%s: freelist names slab slot %u of %zu", auditName(),
                   node, slab_.size());
        FDP_ASSERT(!pending[node],
                   "%s: slab slot %u is both pending and free",
                   auditName(), node);
        pending[node] = true;
        FDP_ASSERT(!slab_[node],
                   "%s: free slab slot %u still holds a callback",
                   auditName(), node);
    }
}

} // namespace fdp
