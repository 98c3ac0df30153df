#include "mem/dram.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dram/dram_controller.hh"
#include "sim/logging.hh"

namespace fdp
{

std::unique_ptr<DramBackend>
makeDramBackend(const DramParams &params, const DramCtrlParams &ctrl,
                EventQueue &events, StatGroup &stats, unsigned numCores)
{
    // transferCycles() converts kBlockBytes / busBytesPerCycle to a
    // Cycle: the rate must be positive and finite, and the quotient
    // below 2^64, or the conversion is undefined.
    const double bus = params.busBytesPerCycle;
    if (!(bus > 0.0) || !std::isfinite(bus) ||
        !(static_cast<double>(kBlockBytes) / bus <
          static_cast<double>(std::numeric_limits<Cycle>::max())))
        fatal("DRAM bus rate %g bytes/cycle: need a positive finite rate "
              "that moves a %u-byte block in fewer than 2^64 cycles",
              bus, kBlockBytes);
    if (ctrl.kind == DramKind::Controller)
        return std::make_unique<DramController>(params, ctrl, events,
                                                stats, numCores);
    return std::make_unique<DramModel>(params, events, stats, numCores);
}

DramModel::DramModel(const DramParams &params, EventQueue &events,
                     StatGroup &stats, unsigned numCores)
    : DramBackend(params, DramKind::Flat, RowPolicy::Open, events, stats,
                  numCores),
      bus_(idleBus())
{
}

bool
DramModel::enqueue(BlockAddr block, BusPriority prio, Cycle now, DoneFn done,
                   CoreId core, PrefetchTier /*tier*/)
{
    switch (prio) {
      case BusPriority::Demand:
        if (demandQ_.size() >= params_.queueCapacity)
            panic("demand bus queue overflow (MSHRs should bound it)");
        demandQ_.push_back({block, prio, now, core, std::move(done)});
        break;
      case BusPriority::Prefetch:
        if (prefQ_.size() >= params_.queueCapacity)
            return false;
        prefQ_.push_back({block, prio, now, core, std::move(done)});
        break;
      case BusPriority::Writeback:
        wbQ_.push_back({block, prio, now, core, std::move(done)});
        break;
    }
    schedulePump(now);
    return true;
}

void
DramModel::promoteToDemand(BlockAddr block)
{
    auto it = std::find_if(prefQ_.begin(), prefQ_.end(),
                           [block](const Request &r) {
                               return r.block == block;
                           });
    if (it == prefQ_.end())
        return;  // already granted the bus; nothing to expedite
    Request req = std::move(*it);
    prefQ_.erase(it);
    req.prio = BusPriority::Demand;
    demandQ_.push_back(std::move(req));
    ++stat(kPromotions);
}

std::size_t
DramModel::queued() const
{
    return demandQ_.size() + prefQ_.size() + wbQ_.size();
}

void
DramModel::schedulePump(Cycle now)
{
    if (pumpScheduled_)
        return;
    pumpScheduled_ = true;
    events_.schedule(std::max(now, bus_.busFree), [this] { pump(); });
}

bool
DramModel::popNext(Request &out)
{
    // Demand first; writebacks pre-empt prefetches only when their
    // backlog is high enough to threaten unbounded growth.
    std::deque<Request> *q = nullptr;
    if (!demandQ_.empty())
        q = &demandQ_;
    else if (wbQ_.size() > params_.writebackHighWater)
        q = &wbQ_;
    else if (!prefQ_.empty())
        q = &prefQ_;
    else if (!wbQ_.empty())
        q = &wbQ_;
    else
        return false;
    out = std::move(q->front());
    q->pop_front();
    return true;
}

void
DramModel::pump()
{
    pumpScheduled_ = false;
    Request req;
    if (!popNext(req))
        return;
    const std::uint64_t global_row = req.block / params_.rowBlocks;
    grant(bus_, static_cast<unsigned>(global_row % params_.banks),
          global_row / params_.banks, req.enqueueCycle, req.prio, req.core,
          std::move(req.done));
    if (queued() > 0)
        schedulePump(bus_.busFree);
}

template <typename Self, typename Io>
void
DramModel::snapFields(Self &self, Io &io)
{
    FDP_ASSERT(self.queued() == 0,
               "%s: %zu requests queued at a snapshot (not quiesced)",
               self.auditName(), self.queued());
    FDP_ASSERT(!self.pumpScheduled_,
               "%s: pump event pending at a snapshot", self.auditName());
    io.begin(self.snapName());
    io.fixedU32(self.params_.banks, "banks");
    for (auto &ready : self.bus_.bankReady)
        io.u64(ready);
    for (auto &row : self.bus_.openRow)
        io.u64(row);
    attributionFields(self, io);
    io.u64(self.bus_.busFree);
    io.end();
}

void
DramModel::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
DramModel::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

void
DramModel::auditQueue(const std::deque<Request> &q, BusPriority prio,
                      const char *label) const
{
    for (const Request &r : q) {
        FDP_ASSERT(r.prio == prio,
                   "%s: %s bus queue holds a request with priority %u",
                   auditName(), label, static_cast<unsigned>(r.prio));
        FDP_ASSERT(r.core.index() < numCores(),
                   "%s: queued %s request for block %llu tagged with core "
                   "%u of %u",
                   auditName(), label,
                   static_cast<unsigned long long>(r.block),
                   r.core.index(), numCores());
        if (prio == BusPriority::Writeback)
            FDP_ASSERT(!r.done,
                       "%s: queued writeback for block %llu has a "
                       "completion callback",
                       auditName(),
                       static_cast<unsigned long long>(r.block));
        else
            FDP_ASSERT(static_cast<bool>(r.done),
                       "%s: queued %s request for block %llu has no "
                       "completion callback",
                       auditName(), label,
                       static_cast<unsigned long long>(r.block));
    }
}

void
DramModel::audit() const
{
    DramBackend::audit();
    FDP_ASSERT(demandQ_.size() <= params_.queueCapacity,
               "%s: demand bus queue holds %zu of %zu entries",
               auditName(), demandQ_.size(), params_.queueCapacity);
    FDP_ASSERT(prefQ_.size() <= params_.queueCapacity,
               "%s: prefetch bus queue holds %zu of %zu entries",
               auditName(), prefQ_.size(), params_.queueCapacity);
    FDP_ASSERT(bus_.bankReady.size() == params_.banks &&
                   bus_.openRow.size() == params_.banks,
               "%s: bank state sized %zu/%zu for %u banks", auditName(),
               bus_.bankReady.size(), bus_.openRow.size(), params_.banks);
    // Between event dispatches, queued work always has a pump pending:
    // enqueue() schedules one and pump() re-schedules while work remains.
    FDP_ASSERT(queued() == 0 || pumpScheduled_,
               "%s: %zu queued requests but no pump scheduled",
               auditName(), queued());
    auditQueue(demandQ_, BusPriority::Demand, "demand");
    auditQueue(prefQ_, BusPriority::Prefetch, "prefetch");
    auditQueue(wbQ_, BusPriority::Writeback, "writeback");
}

} // namespace fdp
