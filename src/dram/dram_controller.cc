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
    : DramBackend(params, DramKind::Controller, ctrl.rowPolicy, events,
                  stats, numCores),
      ctrl_(ctrl), coreServed_(numCores, 0), corePrefQueued_(numCores, 0)
{
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
    for (Channel &c : channels_)
        static_cast<Bus &>(c) = idleBus();

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
            ++stat(kQosRejects);
            return false;
        }
        if (ctrl_.fdpPriority && tier == PrefetchTier::Low &&
            ctrl_.lowTierDropAt > 0 &&
            c.readQ.size() >= ctrl_.lowTierDropAt) {
            ++stat(kLowTierDrops);
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
        ++stat(kPromotions);
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

void
DramController::resetAttribution()
{
    DramBackend::resetAttribution();
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
    if (take_read) {
        const ReadKey k = c.readQ[read];
        c.readQ.erase(c.readQ.begin() + static_cast<std::ptrdiff_t>(read));
        ReadSlot &slot = c.slab[k.slot];
        const bool demand = k.group == kGroupDemand;
        grant(c, k.bank, k.row, slot.enqueueCycle,
              demand ? BusPriority::Demand : BusPriority::Prefetch, k.core,
              std::move(slot.done));
        c.slabFree.push_back(k.slot);
        ++coreServed_[k.core.index()];
        if (!demand)
            --corePrefQueued_[k.core.index()];
    } else if (!c.wbQ.empty()) {
        const WbRequest w = c.wbQ.front();
        c.wbQ.pop_front();
        unsigned bank = 0;
        std::uint64_t row = 0;
        decode(w.block, &bank, &row);
        grant(c, bank, row, w.enqueueCycle, BusPriority::Writeback, w.core,
              nullptr);
    } else {
        return;  // nothing queued
    }
    c.busyCycles += transferCycles_;

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
    attributionFields(self, io);
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
    DramBackend::audit();
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
            FDP_ASSERT(core.index() < numCores(),
                       "%s: queued request for block %llu tagged with "
                       "core %u of %u",
                       auditName(), static_cast<unsigned long long>(block),
                       core.index(), numCores());
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
    FDP_ASSERT(busy_sum == count(kBusBusyCycles),
               "%s: per-channel occupancies sum to %llu but the "
               "registered statistic is %llu",
               auditName(), static_cast<unsigned long long>(busy_sum),
               static_cast<unsigned long long>(count(kBusBusyCycles)));
    for (std::size_t i = 0; i < corePrefQueued_.size(); ++i)
        FDP_ASSERT(pref_queued[i] == corePrefQueued_[i],
                   "%s: core %zu QoS ledger says %u queued prefetches "
                   "but the queues hold %u",
                   auditName(), i, corePrefQueued_[i], pref_queued[i]);
}

} // namespace fdp
