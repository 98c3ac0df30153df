#include "dram/dram_backend.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "sim/logging.hh"

namespace fdp
{

namespace
{

/** Statistic name and description of each DramBackend::Counter. */
struct CounterInfo
{
    const char *name;
    const char *desc;
    /** The controller's text, where it differs (its bus statistic sums
     *  every channel). */
    const char *ctrlDesc = nullptr;
    /** Counted by the controller only: the flat model has no empty
     *  rows, accuracy tiers or QoS. */
    bool ctrlOnly = false;
};

constexpr CounterInfo kCounterInfo[] = {
    {"bus_accesses", "blocks transferred on the bus"},
    {"demand_grants", "demand bus grants"},
    {"prefetch_grants", "prefetch bus grants"},
    {"writeback_grants", "writeback bus grants"},
    {"row_hits", "row-buffer hits"},
    {"row_conflicts", "row-buffer conflicts"},
    {"row_empties", "accesses to a precharged bank (no open row)", nullptr,
     true},
    {"bus_busy_cycles", "cycles the data bus was busy",
     "cycles any data bus was busy (all channels)"},
    {"promotions", "prefetches promoted to demand"},
    {"low_tier_drops", "low-accuracy prefetches dropped under queue pressure",
     nullptr, true},
    {"qos_rejects", "prefetches rejected by the per-core QoS cap", nullptr,
     true},
};

} // namespace

Cycle
DramParams::transferCycles() const
{
    return static_cast<Cycle>(
        std::ceil(static_cast<double>(kBlockBytes) / busBytesPerCycle));
}

Cycle
DramParams::unloadedLatency() const
{
    return accessRowConflict + transferCycles() + returnCycles;
}

DramParams
DramParams::withUnloadedLatency(Cycle total)
{
    DramParams p;
    const Cycle transfer = p.transferCycles();
    if (total < transfer + 20)
        fatal("unloaded DRAM latency %llu too small",
              static_cast<unsigned long long>(total));
    const Cycle rest = total - transfer;
    p.accessRowConflict = rest / 2;
    p.accessRowHit = (p.accessRowConflict * 3) / 5;
    p.returnCycles = rest - p.accessRowConflict;
    return p;
}

DramBackend::DramBackend(const DramParams &params, DramKind kind,
                         RowPolicy rowPolicy, EventQueue &events,
                         StatGroup &stats, unsigned numCores)
    : params_(params), events_(events),
      transferCycles_(params.transferCycles()), rowPolicy_(rowPolicy),
      emptyRows_(kind == DramKind::Controller),
      coreBusAccesses_(numCores, 0)
{
    static_assert(std::size(kCounterInfo) == kNumCounters);
    const bool ctrl = kind == DramKind::Controller;
    for (std::size_t k = 0; k < kNumCounters; ++k) {
        const CounterInfo &info = kCounterInfo[k];
        if (info.ctrlOnly && !ctrl)
            continue;
        stats_[k].emplace(stats, info.name,
                          ctrl && info.ctrlDesc ? info.ctrlDesc : info.desc);
    }
    if (params_.banks == 0 || params_.rowBlocks == 0)
        fatal("DRAM needs nonzero banks and row size");
    if (numCores == 0)
        fatal("DRAM needs at least one requesting core");
}

DramBackend::Bus
DramBackend::idleBus() const
{
    return {std::vector<Cycle>(params_.banks, 0),
            std::vector<std::uint64_t>(params_.banks, kNoRow)};
}

void
DramBackend::grant(Bus &bus, unsigned bank, std::uint64_t row,
                   Cycle enqueued, BusPriority prio, CoreId core,
                   DoneFn &&done)
{
    const Cycle now = events_.horizon();
    const std::uint64_t open = bus.openRow[bank];
    const bool row_hit = open == row;
    // The flat model has no empty-row state: a precharged bank there
    // costs, and counts as, a conflict.
    const bool row_empty = !row_hit && open == kNoRow && emptyRows_;
    const Cycle access = row_hit     ? params_.accessRowHit
                         : row_empty ? params_.accessRowEmpty()
                                     : params_.accessRowConflict;

    // The access phase is latency, counted from when the bank can accept
    // the command; open-row hits pipeline at the CAS-to-CAS cadence
    // (their latency overlaps earlier operations), while an activate
    // (precharged bank or row conflict) occupies the bank until its
    // transfer ends. The data transfer itself serializes on the bus.
    const Cycle access_start = std::max(enqueued, bus.bankReady[bank]);
    const Cycle data_start =
        std::max({access_start + access, bus.busFree, now});
    const Cycle data_end = data_start + transferCycles_;

    bus.busFree = data_end;
    bus.bankReady[bank] =
        row_hit ? access_start + params_.casToCASCycles : data_end;
    switch (rowPolicy_) {
      case RowPolicy::Open:
        bus.openRow[bank] = row;
        break;
      case RowPolicy::Closed:
        bus.openRow[bank] = kNoRow;  // auto-precharge
        break;
      case RowPolicy::Adaptive:
        // Precharge after a conflict (the open row is not earning its
        // keep); stay open after hits and first-touch activates.
        bus.openRow[bank] = row_hit || row_empty ? row : kNoRow;
        break;
    }

    ++stat(kBusAccesses);
    ++coreBusAccesses_[core.index()];
    stat(kBusBusyCycles) += transferCycles_;
    ++stat(row_hit ? kRowHits : row_empty ? kRowEmpties : kRowConflicts);
    ++stat(grantCounter(prio));

    if (done) {
        const Cycle fill = data_end + params_.returnCycles;
        events_.schedule(fill, [fn = std::move(done),
                                fill]() mutable { fn(fill); });
    }
}

DramBackend::Counter
DramBackend::grantCounter(BusPriority prio)
{
    static_assert(kPrefetchGrants - kDemandGrants ==
                      static_cast<unsigned>(BusPriority::Prefetch) &&
                  kWritebackGrants - kDemandGrants ==
                      static_cast<unsigned>(BusPriority::Writeback));
    return static_cast<Counter>(kDemandGrants + static_cast<unsigned>(prio));
}

std::uint64_t
DramBackend::grants(BusPriority prio) const
{
    return count(grantCounter(prio));
}

std::uint64_t
DramBackend::busAccessesByCore(CoreId core) const
{
    FDP_ASSERT(core.index() < coreBusAccesses_.size(),
               "%s: core %u of %zu asked for its bus accesses",
               auditName(), core.index(), coreBusAccesses_.size());
    return coreBusAccesses_[core.index()];
}

void
DramBackend::resetAttribution()
{
    for (std::uint64_t &n : coreBusAccesses_)
        n = 0;
}

void
DramBackend::audit() const
{
    std::uint64_t per_core_sum = 0;
    for (const std::uint64_t n : coreBusAccesses_)
        per_core_sum += n;
    FDP_ASSERT(per_core_sum == busAccesses(),
               "%s: per-core bus accesses sum to %llu but the shared "
               "total is %llu",
               auditName(), static_cast<unsigned long long>(per_core_sum),
               static_cast<unsigned long long>(busAccesses()));
}

} // namespace fdp
