#include "dram/dram_controller.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace fdp
{

DramController::DramController(const DramParams &params,
                               const DramCtrlParams &ctrl,
                               EventQueue &events, StatGroup &stats,
                               unsigned numCores)
    : params_(params), ctrl_(ctrl), events_(events),
      transferCycles_(params.transferCycles()),
      coreBusAccesses_(numCores, 0), coreServed_(numCores, 0),
      corePrefQueued_(numCores, 0),
      busAccesses_(stats, "bus_accesses", "blocks transferred on the bus"),
      demandGrants_(stats, "demand_grants", "demand bus grants"),
      prefetchGrants_(stats, "prefetch_grants", "prefetch bus grants"),
      writebackGrants_(stats, "writeback_grants", "writeback bus grants"),
      rowHits_(stats, "row_hits", "row-buffer hits"),
      rowConflicts_(stats, "row_conflicts", "row-buffer conflicts"),
      rowEmpties_(stats, "row_empties",
                  "accesses to a precharged bank (no open row)"),
      busBusyCycles_(stats, "bus_busy_cycles",
                     "cycles any data bus was busy (all channels)"),
      promotions_(stats, "promotions", "prefetches promoted to demand"),
      lowTierDrops_(stats, "low_tier_drops",
                    "low-accuracy prefetches dropped under queue pressure"),
      qosRejects_(stats, "qos_rejects",
                  "prefetches rejected by the per-core QoS cap")
{
    if (params_.banks == 0 || params_.rowBlocks == 0)
        fatal("DRAM needs nonzero banks and row size");
    if (numCores == 0)
        fatal("DRAM needs at least one requesting core");
    if (ctrl_.channels == 0 ||
        (ctrl_.channels & (ctrl_.channels - 1)) != 0)
        fatal("DRAM controller needs a power-of-two channel count "
              "(got %u)", ctrl_.channels);
    if (params_.rowBlocks % ctrl_.channels != 0)
        fatal("DRAM row size (%u blocks) must be a multiple of the "
              "channel count (%u) for XOR interleaving",
              params_.rowBlocks, ctrl_.channels);
    if (params_.queueCapacity > kMaxQueueCapacity)
        fatal("DRAM controller queue capacity %zu exceeds %zu",
              params_.queueCapacity, kMaxQueueCapacity);
    channels_ = std::vector<Channel>(ctrl_.channels);
    for (Channel &c : channels_) {
        c.bankReady.assign(params_.banks, 0);
        c.openRow.assign(params_.banks, kNoRow);
    }

    // FR-FCFS classes, indexed [group][row hit]. Accuracy-blind mode is
    // one class for every read. With the FDP tie-in, a prefetch demoted
    // below every queued demand starves outright on a saturated bus, and
    // a starved stream's accuracy collapses to zero — a demotion death
    // spiral. So only the low-accuracy tier runs strictly behind demands
    // (and is shed at enqueue): High is scheduled exactly like a demand,
    // and Medium only yields its row-buffer misses.
    static constexpr ClassTable kBlind = {{{1, 0}, {1, 0}, {1, 0}, {1, 0}}};
    static constexpr ClassTable kTiered = {{{1, 0}, {1, 0}, {2, 0}, {4, 3}}};
    classOf_ = ctrl_.fdpPriority ? kTiered : kBlind;
}

unsigned
DramController::channelOf(BlockAddr block) const
{
    // XOR interleaving: consecutive blocks stripe across channels, and
    // folding the row index in remaps bank-conflicting strides from
    // row to row. rowBlocks % channels == 0 (checked above) keeps the
    // map injective per channel: one row's blocks never straddle the
    // same channel slot twice.
    return static_cast<unsigned>((block ^ (block / params_.rowBlocks)) %
                                 ctrl_.channels);
}

void
DramController::decode(BlockAddr block, unsigned *bank,
                       std::uint64_t *row) const
{
    const BlockAddr local = block / ctrl_.channels;
    const std::uint64_t global_row = local / params_.rowBlocks;
    *bank = static_cast<unsigned>(global_row % params_.banks);
    *row = global_row / params_.banks;
}

bool
DramController::enqueue(BlockAddr block, BusPriority prio, Cycle now,
                        DoneFn done, CoreId core, PrefetchTier tier)
{
    const unsigned ch = channelOf(block);
    Channel &c = channels_[ch];
    std::uint8_t group = kGroupDemand;
    switch (prio) {
      case BusPriority::Demand:
        if (c.readQ.size() >= params_.queueCapacity)
            panic("demand bus queue overflow (MSHRs should bound it)");
        break;
      case BusPriority::Prefetch:
        if (c.readQ.size() >= params_.queueCapacity)
            return false;
        if (ctrl_.qosInFlightCap > 0 &&
            corePrefQueued_[core.index()] >= ctrl_.qosInFlightCap) {
            ++qosRejects_;
            return false;
        }
        if (ctrl_.fdpPriority && tier == PrefetchTier::Low &&
            ctrl_.lowTierDropAt > 0 &&
            c.readQ.size() >= ctrl_.lowTierDropAt) {
            ++lowTierDrops_;
            return false;
        }
        ++corePrefQueued_[core.index()];
        group = static_cast<std::uint8_t>(kGroupHigh +
                                          static_cast<unsigned>(tier));
        break;
      case BusPriority::Writeback:
        if (done)
            panic("%s: writeback enqueued with a completion callback",
                  auditName());
        c.wbQ.push_back({block, now, nextSeq_++, core});
        schedulePump(ch, now);
        return true;
    }

    ReadKey k;
    k.block = block;
    unsigned bank = 0;
    decode(block, &bank, &k.row);
    k.bank = bank;
    k.core = core;
    k.group = group;
    if (c.slabFree.empty()) {
        c.slabFree.push_back(static_cast<std::uint16_t>(c.slab.size()));
        c.slab.emplace_back();
    }
    k.slot = c.slabFree.back();
    c.slabFree.pop_back();
    ReadSlot &slot = c.slab[k.slot];
    slot.done = std::move(done);
    slot.enqueueCycle = now;
    slot.seq = nextSeq_++;
    c.readQ.push_back(k);
    schedulePump(ch, now);
    return true;
}

void
DramController::promoteToDemand(BlockAddr block)
{
    Channel &c = channels_[channelOf(block)];
    for (ReadKey &k : c.readQ) {
        if (k.block != block || k.group == kGroupDemand)
            continue;
        k.group = kGroupDemand;
        --corePrefQueued_[k.core.index()];
        ++promotions_;
        return;
    }
    // Not queued: already granted the bus; nothing to expedite.
}

std::size_t
DramController::queued() const
{
    std::size_t n = 0;
    for (const Channel &c : channels_)
        n += c.readQ.size() + c.wbQ.size();
    return n;
}

std::uint64_t
DramController::busBusyCycles() const
{
    std::uint64_t busy = 0;
    for (const Channel &c : channels_)
        busy += c.busyCycles;
    return busy;
}

std::uint64_t
DramController::busBusyCyclesOnChannel(unsigned ch) const
{
    FDP_ASSERT(ch < channels_.size(),
               "%s: channel %u of %zu asked for its occupancy",
               auditName(), ch, channels_.size());
    return channels_[ch].busyCycles;
}

std::uint64_t
DramController::busAccessesByCore(CoreId core) const
{
    FDP_ASSERT(core.index() < coreBusAccesses_.size(),
               "%s: core %u of %zu asked for its bus accesses",
               auditName(), core.index(), coreBusAccesses_.size());
    return coreBusAccesses_[core.index()];
}

void
DramController::resetAttribution()
{
    for (std::uint64_t &n : coreBusAccesses_)
        n = 0;
    // The measured occupancies are audited against the bus_busy_cycles
    // statistic, which the measurement boundary resets with its group.
    for (Channel &c : channels_)
        c.busyCycles = 0;
}

std::size_t
DramController::pickRead(const Channel &c, unsigned *cls) const
{
    std::size_t best = kNoPick;
    unsigned best_class = 0;
    if (!ctrl_.qosWeighted) {
        // The lowest class wins and age (queue order) breaks ties, so
        // the oldest head-class read beats everything queued after it.
        for (std::size_t i = 0; i < c.readQ.size(); ++i) {
            const unsigned rank = pickClass(c, c.readQ[i]);
            if (best == kNoPick || rank < best_class) {
                best = i;
                best_class = rank;
                if (rank == 0)
                    break;
            }
        }
        *cls = best_class;
        return best;
    }

    std::uint64_t best_served = 0;
    for (std::size_t i = 0; i < c.readQ.size(); ++i) {
        const ReadKey &r = c.readQ[i];
        const unsigned rank = pickClass(c, r);
        // Weighted service: among equal-class candidates the core with
        // the least read grants wins; age (queue order) breaks ties.
        const std::uint64_t served = coreServed_[r.core.index()];
        if (best == kNoPick || rank < best_class ||
            (rank == best_class && served < best_served)) {
            best = i;
            best_class = rank;
            best_served = served;
        }
    }
    *cls = best_class;
    return best;
}

void
DramController::schedulePump(unsigned ch, Cycle now)
{
    Channel &c = channels_[ch];
    if (c.pumpScheduled)
        return;
    c.pumpScheduled = true;
    events_.schedule(std::max(now, c.busFree), [this, ch] { pump(ch); });
}

void
DramController::pump(unsigned ch)
{
    Channel &c = channels_[ch];
    c.pumpScheduled = false;

    unsigned read_class = 0;
    const std::size_t read = pickRead(c, &read_class);
    // Writebacks run behind reads, except past the high-water backlog,
    // where they pre-empt prefetches (never a demand or a head-class
    // row hit).
    const bool take_read =
        read != kNoPick &&
        (c.readQ[read].group == kGroupDemand || read_class == 0 ||
         c.wbQ.size() <= params_.writebackHighWater);
    if (!take_read && c.wbQ.empty())
        return;  // nothing queued

    Cycle enqueue_cycle = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    CoreId core;
    std::uint8_t group = kGroupDemand;
    bool writeback = false;
    DoneFn done;
    if (take_read) {
        const ReadKey k = c.readQ[read];
        c.readQ.erase(c.readQ.begin() + static_cast<std::ptrdiff_t>(read));
        ReadSlot &slot = c.slab[k.slot];
        done = std::move(slot.done);
        enqueue_cycle = slot.enqueueCycle;
        c.slabFree.push_back(k.slot);
        bank = k.bank;
        row = k.row;
        core = k.core;
        group = k.group;
    } else {
        const WbRequest &w = c.wbQ.front();
        decode(w.block, &bank, &row);
        enqueue_cycle = w.enqueueCycle;
        core = w.core;
        c.wbQ.pop_front();
        writeback = true;
    }

    const Cycle now = events_.horizon();
    const bool row_hit = c.openRow[bank] == row;
    const bool row_empty = !row_hit && c.openRow[bank] == kNoRow;
    const Cycle access = row_hit    ? params_.accessRowHit
                         : row_empty ? params_.accessRowEmpty()
                                     : params_.accessRowConflict;

    // Same bank/bus pipeline as the flat model, per channel: open-row
    // hits pipeline at the CAS cadence, activates (empty or conflict)
    // occupy the bank until their transfer ends, and the data transfer
    // serializes on the channel's bus.
    const Cycle access_start = std::max(enqueue_cycle, c.bankReady[bank]);
    const Cycle data_start =
        std::max({access_start + access, c.busFree, now});
    const Cycle data_end = data_start + transferCycles_;

    c.busFree = data_end;
    c.bankReady[bank] =
        row_hit ? access_start + params_.casToCASCycles : data_end;
    switch (ctrl_.rowPolicy) {
      case RowPolicy::Open:
        c.openRow[bank] = row;
        break;
      case RowPolicy::Closed:
        c.openRow[bank] = kNoRow;  // auto-precharge
        break;
      case RowPolicy::Adaptive:
        // Precharge after a conflict (the open row is not earning its
        // keep); stay open after hits and first-touch activates.
        c.openRow[bank] = row_hit || row_empty ? row : kNoRow;
        break;
    }

    ++busAccesses_;
    ++coreBusAccesses_[core.index()];
    c.busyCycles += transferCycles_;
    busBusyCycles_ += transferCycles_;
    if (row_hit)
        ++rowHits_;
    else if (row_empty)
        ++rowEmpties_;
    else
        ++rowConflicts_;
    if (writeback) {
        ++writebackGrants_;
    } else if (group == kGroupDemand) {
        ++demandGrants_;
        ++coreServed_[core.index()];
    } else {
        ++prefetchGrants_;
        ++coreServed_[core.index()];
        --corePrefQueued_[core.index()];
    }

    if (done) {
        const Cycle fill = data_end + params_.returnCycles;
        events_.schedule(fill, [fn = std::move(done),
                                fill]() mutable { fn(fill); });
    }

    if (!c.readQ.empty() || !c.wbQ.empty())
        schedulePump(ch, c.busFree);
}

template <typename Self, typename Io>
void
DramController::snapFields(Self &self, Io &io)
{
    FDP_ASSERT(self.queued() == 0,
               "%s: %zu requests queued at a snapshot (not quiesced)",
               self.auditName(), self.queued());
    for (const Channel &c : self.channels_)
        FDP_ASSERT(!c.pumpScheduled,
                   "%s: pump event pending at a snapshot",
                   self.auditName());
    io.begin(self.snapName());
    io.fixedU32(self.ctrl_.channels, "channels");
    io.fixedU32(self.params_.banks, "banks");
    for (auto &c : self.channels_) {
        io.u64(c.busFree);
        io.u64(c.busyCycles);
        for (auto &ready : c.bankReady)
            io.u64(ready);
        for (auto &row : c.openRow)
            io.u64(row);
    }
    io.fixedU32(self.coreBusAccesses_.size(), "cores");
    for (auto &n : self.coreBusAccesses_)
        io.u64(n);
    for (auto &n : self.coreServed_)
        io.u64(n);
    io.end();
}

void
DramController::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
DramController::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
    // Derived state is rebuilt, not serialized: the queues are empty at
    // a quiesce point, so arrival sequencing restarts and the per-core
    // queued-prefetch recount is zero.
    nextSeq_ = 0;
    for (unsigned &n : corePrefQueued_)
        n = 0;
    for (Channel &c : channels_) {
        c.slab.clear();
        c.slabFree.clear();
    }
}

void
DramController::audit() const
{
    FDP_ASSERT(channels_.size() == ctrl_.channels,
               "%s: %zu channel states for %u configured channels",
               auditName(), channels_.size(), ctrl_.channels);
    std::uint64_t busy_sum = 0;
    std::vector<unsigned> pref_queued(corePrefQueued_.size(), 0);
    for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
        const Channel &c = channels_[ch];
        FDP_ASSERT(c.readQ.size() <= params_.queueCapacity,
                   "%s: channel %zu read queue holds %zu of %zu entries",
                   auditName(), ch, c.readQ.size(),
                   params_.queueCapacity);
        FDP_ASSERT(c.bankReady.size() == params_.banks &&
                       c.openRow.size() == params_.banks,
                   "%s: channel %zu bank state sized %zu/%zu for %u "
                   "banks",
                   auditName(), ch, c.bankReady.size(), c.openRow.size(),
                   params_.banks);
        // Between event dispatches, queued work always has a pump
        // pending: enqueue() schedules one and pump() re-schedules
        // while work remains on the channel.
        FDP_ASSERT((c.readQ.empty() && c.wbQ.empty()) || c.pumpScheduled,
                   "%s: channel %zu has %zu queued requests but no pump "
                   "scheduled",
                   auditName(), ch, c.readQ.size() + c.wbQ.size());
        busy_sum += c.busyCycles;

        std::uint64_t last_seq = 0;
        bool have_seq = false;
        const auto auditOrder = [&](BlockAddr block, CoreId core,
                                    std::uint64_t seq) {
            FDP_ASSERT(channelOf(block) == ch,
                       "%s: block %llu queued on channel %zu but routes "
                       "to channel %u",
                       auditName(), static_cast<unsigned long long>(block),
                       ch, channelOf(block));
            FDP_ASSERT(core.index() < coreBusAccesses_.size(),
                       "%s: queued request for block %llu tagged with "
                       "core %u of %zu",
                       auditName(), static_cast<unsigned long long>(block),
                       core.index(), coreBusAccesses_.size());
            FDP_ASSERT(!have_seq || seq > last_seq,
                       "%s: channel %zu queue order disagrees with "
                       "arrival order (seq %llu after %llu)",
                       auditName(), ch, static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(last_seq));
            FDP_ASSERT(seq < nextSeq_,
                       "%s: queued request carries unissued sequence "
                       "number %llu",
                       auditName(), static_cast<unsigned long long>(seq));
            last_seq = seq;
            have_seq = true;
        };

        // Every read key owns a distinct slab slot; the free list names
        // exactly the rest.
        std::vector<bool> slot_used(c.slab.size(), false);
        for (const ReadKey &k : c.readQ) {
            FDP_ASSERT(k.slot < c.slab.size() && !slot_used[k.slot],
                       "%s: channel %zu read for block %llu names slab "
                       "slot %u of %zu (or a slot already in use)",
                       auditName(), ch,
                       static_cast<unsigned long long>(k.block), k.slot,
                       c.slab.size());
            slot_used[k.slot] = true;
            const ReadSlot &slot = c.slab[k.slot];
            auditOrder(k.block, k.core, slot.seq);
            unsigned bank = 0;
            std::uint64_t row = 0;
            decode(k.block, &bank, &row);
            FDP_ASSERT(k.bank == bank && k.row == row,
                       "%s: read key for block %llu caches bank %u row "
                       "%llu, but the block decodes to bank %u row %llu",
                       auditName(), static_cast<unsigned long long>(k.block),
                       k.bank, static_cast<unsigned long long>(k.row), bank,
                       static_cast<unsigned long long>(row));
            FDP_ASSERT(k.group < kNumGroups,
                       "%s: read key for block %llu in scheduling group %u",
                       auditName(), static_cast<unsigned long long>(k.block),
                       k.group);
            FDP_ASSERT(static_cast<bool>(slot.done),
                       "%s: queued read for block %llu is missing a "
                       "completion callback",
                       auditName(),
                       static_cast<unsigned long long>(k.block));
            if (k.group != kGroupDemand)
                ++pref_queued[k.core.index()];
        }
        FDP_ASSERT(c.readQ.size() + c.slabFree.size() == c.slab.size(),
                   "%s: channel %zu slab holds %zu slots for %zu queued "
                   "reads and %zu free slots",
                   auditName(), ch, c.slab.size(), c.readQ.size(),
                   c.slabFree.size());
        for (const std::uint16_t free_slot : c.slabFree) {
            FDP_ASSERT(free_slot < c.slab.size() && !slot_used[free_slot],
                       "%s: channel %zu free list names slab slot %u, "
                       "which is out of range or in use",
                       auditName(), ch, free_slot);
            slot_used[free_slot] = true;
        }

        have_seq = false;
        for (const WbRequest &w : c.wbQ)
            auditOrder(w.block, w.core, w.seq);
    }
    FDP_ASSERT(busy_sum == busBusyCycles_.value(),
               "%s: per-channel occupancies sum to %llu but the "
               "registered statistic is %llu",
               auditName(), static_cast<unsigned long long>(busy_sum),
               static_cast<unsigned long long>(busBusyCycles_.value()));
    std::uint64_t per_core_sum = 0;
    for (const std::uint64_t n : coreBusAccesses_)
        per_core_sum += n;
    FDP_ASSERT(per_core_sum == busAccesses_.value(),
               "%s: per-core bus accesses sum to %llu but the shared "
               "total is %llu",
               auditName(), static_cast<unsigned long long>(per_core_sum),
               static_cast<unsigned long long>(busAccesses_.value()));
    for (std::size_t i = 0; i < corePrefQueued_.size(); ++i)
        FDP_ASSERT(pref_queued[i] == corePrefQueued_[i],
                   "%s: core %zu QoS ledger says %u queued prefetches "
                   "but the queues hold %u",
                   auditName(), i, corePrefQueued_[i], pref_queued[i]);
}

} // namespace fdp
