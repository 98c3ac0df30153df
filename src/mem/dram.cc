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
    : params_(params), events_(events),
      transferCycles_(params.transferCycles()),
      bankReady_(params.banks, 0),
      openRow_(params.banks, ~std::uint64_t{0}),
      coreBusAccesses_(numCores, 0),
      busAccesses_(stats, "bus_accesses", "blocks transferred on the bus"),
      demandGrants_(stats, "demand_grants", "demand bus grants"),
      prefetchGrants_(stats, "prefetch_grants", "prefetch bus grants"),
      writebackGrants_(stats, "writeback_grants", "writeback bus grants"),
      rowHits_(stats, "row_hits", "row-buffer hits"),
      rowConflicts_(stats, "row_conflicts", "row-buffer conflicts"),
      busBusyCycles_(stats, "bus_busy_cycles", "cycles the data bus was busy"),
      promotions_(stats, "promotions", "prefetches promoted to demand")
{
    if (params_.banks == 0 || params_.rowBlocks == 0)
        fatal("DRAM needs nonzero banks and row size");
    if (numCores == 0)
        fatal("DRAM needs at least one requesting core");
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

std::uint64_t
DramModel::busAccessesByCore(CoreId core) const
{
    FDP_ASSERT(core.index() < coreBusAccesses_.size(),
               "%s: core %u of %zu asked for its bus accesses",
               auditName(), core.index(), coreBusAccesses_.size());
    return coreBusAccesses_[core.index()];
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
    ++promotions_;
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
    events_.schedule(std::max(now, busFree_), [this] { pump(); });
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

    const Cycle now = events_.horizon();
    const std::uint64_t global_row = req.block / params_.rowBlocks;
    const unsigned bank =
        static_cast<unsigned>(global_row % params_.banks);
    const std::uint64_t row = global_row / params_.banks;

    const bool row_hit = openRow_[bank] == row;
    const Cycle access =
        row_hit ? params_.accessRowHit : params_.accessRowConflict;

    // The access phase is latency, counted from when the bank can accept
    // the command; open-row accesses pipeline at the CAS-to-CAS cadence
    // (their latency overlaps earlier operations), while a row conflict
    // (precharge + activate) occupies the bank until its transfer ends.
    // The data transfer itself serializes on the shared bus.
    const Cycle access_start = std::max(req.enqueueCycle, bankReady_[bank]);
    const Cycle data_start =
        std::max({access_start + access, busFree_, now});
    const Cycle data_end = data_start + transferCycles_;

    busFree_ = data_end;
    bankReady_[bank] =
        row_hit ? access_start + params_.casToCASCycles : data_end;
    openRow_[bank] = row;

    ++busAccesses_;
    ++coreBusAccesses_[req.core.index()];
    busBusyCycles_ += transferCycles_;
    if (row_hit)
        ++rowHits_;
    else
        ++rowConflicts_;
    switch (req.prio) {
      case BusPriority::Demand: ++demandGrants_; break;
      case BusPriority::Prefetch: ++prefetchGrants_; break;
      case BusPriority::Writeback: ++writebackGrants_; break;
    }

    if (req.done) {
        const Cycle fill = data_end + params_.returnCycles;
        events_.schedule(fill, [fn = std::move(req.done),
                                fill]() mutable { fn(fill); });
    }

    if (queued() > 0)
        schedulePump(busFree_);
}

void
DramModel::saveState(SnapWriter &w) const
{
    FDP_ASSERT(queued() == 0,
               "%s: snapshot with %zu requests queued (not quiesced)",
               auditName(), queued());
    FDP_ASSERT(!pumpScheduled_,
               "%s: snapshot with a pump event pending", auditName());
    w.beginSection(snapName());
    w.putU32(params_.banks);
    for (const Cycle ready : bankReady_)
        w.putU64(ready);
    for (const std::uint64_t row : openRow_)
        w.putU64(row);
    w.putU32(static_cast<std::uint32_t>(coreBusAccesses_.size()));
    for (const std::uint64_t n : coreBusAccesses_)
        w.putU64(n);
    w.putU64(busFree_);
    w.endSection();
}

void
DramModel::loadState(SnapReader &r)
{
    FDP_ASSERT(queued() == 0,
               "%s: restore with %zu requests queued", auditName(),
               queued());
    FDP_ASSERT(!pumpScheduled_,
               "%s: restore with a pump event pending", auditName());
    r.openSection(snapName());
    const std::uint32_t banks = r.getU32();
    if (banks != params_.banks)
        fatal("snapshot: DRAM has %u banks, snapshot has %u",
              params_.banks, banks);
    for (Cycle &ready : bankReady_)
        ready = r.getU64();
    for (std::uint64_t &row : openRow_)
        row = r.getU64();
    const std::uint32_t cores = r.getU32();
    if (cores != coreBusAccesses_.size())
        fatal("snapshot: DRAM serves %zu cores, snapshot has %u",
              coreBusAccesses_.size(), cores);
    for (std::uint64_t &n : coreBusAccesses_)
        n = r.getU64();
    busFree_ = r.getU64();
    r.closeSection();
}

void
DramModel::resetAttribution()
{
    for (std::uint64_t &n : coreBusAccesses_)
        n = 0;
}

void
DramModel::auditQueue(const std::deque<Request> &q, BusPriority prio,
                      const char *label) const
{
    for (const Request &r : q) {
        FDP_ASSERT(r.prio == prio,
                   "%s: %s bus queue holds a request with priority %u",
                   auditName(), label, static_cast<unsigned>(r.prio));
        FDP_ASSERT(r.core.index() < coreBusAccesses_.size(),
                   "%s: queued %s request for block %llu tagged with core "
                   "%u of %zu",
                   auditName(), label,
                   static_cast<unsigned long long>(r.block),
                   r.core.index(), coreBusAccesses_.size());
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
    FDP_ASSERT(demandQ_.size() <= params_.queueCapacity,
               "%s: demand bus queue holds %zu of %zu entries",
               auditName(), demandQ_.size(), params_.queueCapacity);
    FDP_ASSERT(prefQ_.size() <= params_.queueCapacity,
               "%s: prefetch bus queue holds %zu of %zu entries",
               auditName(), prefQ_.size(), params_.queueCapacity);
    FDP_ASSERT(bankReady_.size() == params_.banks &&
                   openRow_.size() == params_.banks,
               "%s: bank state sized %zu/%zu for %u banks", auditName(),
               bankReady_.size(), openRow_.size(), params_.banks);
    // Between event dispatches, queued work always has a pump pending:
    // enqueue() schedules one and pump() re-schedules while work remains.
    FDP_ASSERT(queued() == 0 || pumpScheduled_,
               "%s: %zu queued requests but no pump scheduled",
               auditName(), queued());
    std::uint64_t per_core_sum = 0;
    for (const std::uint64_t n : coreBusAccesses_)
        per_core_sum += n;
    FDP_ASSERT(per_core_sum == busAccesses_.value(),
               "%s: per-core bus accesses sum to %llu but the shared "
               "total is %llu",
               auditName(), static_cast<unsigned long long>(per_core_sum),
               static_cast<unsigned long long>(busAccesses_.value()));
    auditQueue(demandQ_, BusPriority::Demand, "demand");
    auditQueue(prefQ_, BusPriority::Prefetch, "prefetch");
    auditQueue(wbQ_, BusPriority::Writeback, "writeback");
}

} // namespace fdp
