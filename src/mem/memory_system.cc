#include "mem/memory_system.hh"

#include <iterator>
#include <utility>

#include "sim/logging.hh"

namespace fdp
{

namespace
{

/** Statistic name and description of each MemorySystem::Counter. */
struct CounterInfo
{
    const char *name;
    const char *desc;
};

constexpr CounterInfo kCounterInfo[] = {
    {"demand_accesses", "demand loads+stores"},
    {"l1_hits", "L1D hits"},
    {"l1_misses", "L1D misses"},
    {"l2_hits", "L2 demand hits"},
    {"l2_misses", "L2 demand misses"},
    {"mshr_merges", "demands merged into in-flight MSHRs"},
    {"mshr_stalls", "demands stalled on a full MSHR file"},
    {"pref_issued", "prefetch candidates produced"},
    {"pref_drop_l2hit", "prefetches dropped: block already cached"},
    {"pref_drop_inflight", "prefetches dropped: block already in flight"},
    {"pref_drop_queue_full", "prefetches dropped: request queue overflow"},
    {"pcache_hits", "demand hits in the prefetch cache"},
    {"writebacks", "dirty blocks written back to DRAM"},
    {"demand_miss_fills", "DRAM fills that served demand misses"},
    {"demand_miss_cycles", "total alloc-to-fill cycles of demand-miss fills"},
    {"l2_evictions_caused", "shared-L2 evictions caused by this core's fills"},
    {"pollution_inflicted",
     "demand blocks evicted by this core's prefetch fills"},
    {"cross_pollution_suffered",
     "demand blocks lost to other cores' prefetch fills"},
};

/** Caches tag lines with owners from all @p numCores cores. */
CacheParams
withCores(CacheParams p, unsigned numCores)
{
    p.numCores = numCores;
    return p;
}

} // namespace

MemorySystem::MemorySystem(const MachineParams &params, EventQueue &events,
                           Prefetcher *pf, FdpController &fdp,
                           StatGroup &stats)
    : MemorySystem(params, events, std::vector<Prefetcher *>{pf},
                   std::vector<FdpController *>{&fdp}, stats, {})
{
}

MemorySystem::MemorySystem(const MachineParams &params, EventQueue &events,
                           const std::vector<Prefetcher *> &prefetchers,
                           const std::vector<FdpController *> &controllers,
                           StatGroup &sharedStats,
                           const std::vector<StatGroup *> &coreStats)
    : params_(params), numCores_(static_cast<unsigned>(controllers.size())),
      l2_(withCores(params.l2, numCores_)),
      mshrs_(params.l2Mshrs, numCores_),
      dram_(makeDramBackend(params.dram, params.dramCtrl, events,
                            sharedStats, numCores_))
{
    static_assert(std::size(kCounterInfo) == kNumCounters);
    if (numCores_ == 0)
        fatal("memory system needs at least one core");
    if (prefetchers.size() != numCores_)
        fatal("%u controllers but %zu prefetchers", numCores_,
              prefetchers.size());
    if (!coreStats.empty() && coreStats.size() != numCores_)
        fatal("%u cores but %zu per-core stat groups", numCores_,
              coreStats.size());
    for (unsigned i = 0; i < numCores_; ++i)
        if (controllers[i] == nullptr)
            fatal("core %u has no FDP controller", i);
    if (params_.mshrDemandReserve >= params_.l2Mshrs)
        fatal("MSHR demand reserve must be below the MSHR capacity");
    if (params_.prefetchCache.enabled) {
        if (numCores_ > 1)
            fatal("the prefetch cache (Section 5.7) is single-core only");
        pcache_ = std::make_unique<PrefetchCache>(params_.prefetchCache);
    }

    // The totals register after the DRAM backend's statistics; each
    // per-core group gets every counter but the prefetch cache's.
    for (std::size_t k = 0; k < kNumTotals; ++k)
        totals_[k] = std::make_unique<ScalarStat>(
            sharedStats, kCounterInfo[k].name, kCounterInfo[k].desc);
    cores_.reserve(numCores_);
    for (unsigned i = 0; i < numCores_; ++i) {
        cores_.emplace_back(withCores(params_.l1, numCores_), prefetchers[i],
                            controllers[i]);
        ports_.emplace_back(*this, CoreId(i));
    }
    for (std::size_t i = 0; i < coreStats.size(); ++i)
        for (std::size_t k = 0; k < kNumCounters; ++k)
            if (k != kPcacheHits)
                cores_[i].stats[k] = std::make_unique<ScalarStat>(
                    *coreStats[i], kCounterInfo[k].name,
                    kCounterInfo[k].desc);
}

MemoryPort &
MemorySystem::port(CoreId core)
{
    if (core.index() >= numCores_)
        fatal("no port for core %u of %u", core.index(), numCores_);
    return ports_[core.index()];
}

void
MemorySystem::demandAccess(CoreId c, Addr addr, Addr pc, bool isWrite,
                           Cycle now, DoneFn &&done)
{
    Core &self = cores_[c.index()];
    ++self.hot[kDemandAccesses];
    const BlockAddr block = blockAddr(addr);
    const Cycle t1 = now + params_.l1Latency;

    if (self.l1.access(block, isWrite).hit) {
        ++self.hot[kL1Hits];
        done(t1);
        return;
    }
    ++self.hot[kL1Misses];

    const Cycle t2 = t1 + params_.l2Latency;
    const CacheAccessResult l2res = l2_.access(block, false);
    PrefetchObservation obs{addr, block, pc, !l2res.hit};

    if (l2res.hit) {
        ++self.hot[kL2Hits];
        // The use is credited to the core whose prefetcher fetched the
        // block (with disjoint address slices, always the accessor).
        if (l2res.hitPrefetched)
            cores_[l2res.owner.index()].fdp->onPrefetchUsedInCache();
        fillL1(c, block, isWrite, t2);
        done(t2);
        observeAndIssue(c, obs, t2);
        return;
    }

    // Probed in parallel with the L2, so a prefetch-cache hit costs the
    // same latency as an L2 hit (paper Section 5.7).
    if (pcache_ && pcache_->extract(block)) {
        ++self.hot[kPcacheHits];
        self.fdp->onPrefetchUsedInCache();
        insertL2Fill(c, block, false, false, t2);
        fillL1(c, block, isWrite, t2);
        done(t2);
        obs.miss = false;  // serviced without going to memory
        observeAndIssue(c, obs, t2);
        return;
    }

    ++self.hot[kL2Misses];
    self.fdp->onDemandMiss(block);
    observeAndIssue(c, obs, t2);

    if (MshrEntry *e = mshrs_.find(block)) {
        mergeDemand(c, *e, isWrite, std::move(done));
        return;
    }

    if (mshrs_.full()) {
        ++self.hot[kMshrStalls];
        mshrWaitQ_.push_back({c, block, isWrite, std::move(done)});
        return;
    }
    startDemandMiss(c, block, isWrite, t2, std::move(done));
}

void
MemorySystem::startDemandMiss(CoreId c, BlockAddr block, bool isWrite,
                              Cycle now, DoneFn &&done)
{
    MshrEntry &e = mshrs_.allocate(block, false, now, c);
    e.writeIntent = isWrite;
    e.waiters.push_back(std::move(done));
    dram_->enqueue(block, BusPriority::Demand, now,
                  [this, block](Cycle cy) { onFill(block, cy); }, c);
}

void
MemorySystem::mergeDemand(CoreId c, MshrEntry &e, bool isWrite,
                          DoneFn &&done)
{
    ++cores_[c.index()].hot[kMshrMerges];
    if (e.prefBit) {
        // Late prefetch: a demand wants data that a prefetch is still
        // fetching (paper Section 3.1.2). The lateness is charged to the
        // core that issued the prefetch; the entry becomes a demand miss
        // of the demanding core.
        cores_[e.core.index()].fdp->onLatePrefetchMshrHit();
        e.prefBit = false;
        e.core = c;
        dram_->promoteToDemand(e.block);
    }
    if (isWrite)
        e.writeIntent = true;
    e.waiters.push_back(std::move(done));
}

void
MemorySystem::observeAndIssue(CoreId c, const PrefetchObservation &obs,
                              Cycle now)
{
    Core &self = cores_[c.index()];
    if (!self.prefetcher)
        return;
    updateBusUtil(now);
    PrefetchObservation seen = obs;
    seen.busUtil = busUtil_;
    pfCandidates_.clear();
    const std::size_t budget =
        params_.prefetchQueueCap - self.prefetchQueue.size();
    self.prefetcher->observe(seen, pfCandidates_, budget);

    for (const BlockAddr b : pfCandidates_) {
        ++self.hot[kPrefIssued];
        if (self.prefetchQueue.size() >= params_.prefetchQueueCap) {
            ++self.hot[kPrefDropQueueFull];
            continue;
        }
        self.prefetchQueue.push_back(b);
    }
    drainPrefetchQueue(c, now);
}

void
MemorySystem::updateBusUtil(Cycle now)
{
    if (now < busWindowStart_ + kBusUtilWindow)
        return;
    const std::uint64_t busy = dram_->busBusyCycles();
    if (busy < busWindowBusy_) {
        // The bus-busy statistic was reset (measurement boundary):
        // re-prime the window and keep the last published value.
        busWindowStart_ = now;
        busWindowBusy_ = busy;
        return;
    }
    busUtil_ = static_cast<double>(busy - busWindowBusy_) /
               (static_cast<double>(now - busWindowStart_) *
                static_cast<double>(dram_->dataBuses()));
    if (busUtil_ > 1.0)
        busUtil_ = 1.0;
    busWindowStart_ = now;
    busWindowBusy_ = busy;
}

void
MemorySystem::drainPrefetchQueue(CoreId c, Cycle now)
{
    Core &self = cores_[c.index()];
    while (!self.prefetchQueue.empty()) {
        const BlockAddr b = self.prefetchQueue.front();
        if (l2_.probe(b) || (pcache_ && pcache_->probe(b))) {
            ++self.hot[kPrefDropL2Hit];
            self.prefetchQueue.pop_front();
            continue;
        }
        if (mshrs_.find(b)) {
            ++self.hot[kPrefDropInFlight];
            self.prefetchQueue.pop_front();
            continue;
        }
        // Prefetches may not take the MSHRs reserved for demands; when
        // none is available the queue simply waits for a deallocation.
        if (mshrs_.size() + params_.mshrDemandReserve >= mshrs_.capacity())
            return;
        mshrs_.allocate(b, true, now, c);
        const bool sent =
            dram_->enqueue(b, BusPriority::Prefetch, now,
                          [this, b](Cycle cy) { onFill(b, cy); }, c,
                          self.fdp->accuracyTier());
        if (!sent) {
            // Bus queue full: keep the candidate queued for later.
            mshrs_.deallocate(b);
            return;
        }
        self.prefetchQueue.pop_front();
        self.fdp->onPrefetchSent();
    }
}

void
MemorySystem::onFill(BlockAddr block, Cycle fillCycle)
{
    MshrEntry *e = mshrs_.find(block);
    if (!e)
        panic("fill for block with no MSHR entry");

    const bool was_prefetch = e->prefBit;
    const bool write_intent = e->writeIntent;
    const CoreId owner = e->core;
    // Swap rather than move the waiters out: the entry slot inherits the
    // scratch vector's (empty) warm storage and the scratch vector keeps
    // its capacity across fills, so neither side reallocates in steady
    // state.
    fillWaiters_.clear();
    fillWaiters_.swap(e->waiters);
    if (!was_prefetch) {
        Counters &hot = cores_[owner.index()].hot;
        ++hot[kDemandMissFills];
        hot[kDemandMissCycles] += fillCycle - e->allocCycle;
    }
    mshrs_.deallocate(block);

    if (!was_prefetch) {
        insertL2Fill(owner, block, false, false, fillCycle);
        fillL1(owner, block, write_intent, fillCycle);
    } else if (pcache_) {
        pcache_->insert(block);
    } else {
        // The owner's filter clears its bit as a prefetch fill; every
        // other core clears too (the block is back in the shared L2),
        // without counting a fill it did not perform.
        for (unsigned i = 0; i < numCores_; ++i) {
            if (CoreId(i) == owner)
                cores_[i].fdp->onPrefetchFill(block);
            else
                cores_[i].fdp->onBlockRefetchedByOtherCore(block);
        }
        insertL2Fill(owner, block, true, false, fillCycle);
    }

    for (auto &w : fillWaiters_)
        w(fillCycle);
    admitPending(fillCycle);
    // Core-id order: deterministic, and with one core a single drain.
    for (unsigned i = 0; i < numCores_; ++i)
        drainPrefetchQueue(CoreId(i), fillCycle);
}

void
MemorySystem::insertL2Fill(CoreId by, BlockAddr block, bool prefBit,
                           bool dirty, Cycle now)
{
    Core &self = cores_[by.index()];
    const InsertPos pos = prefBit ? self.fdp->insertPos() : InsertPos::Mru;
    const CacheVictim v = l2_.insert(block, prefBit, pos, dirty, by);
    if (!v.valid)
        return;
    ++self.hot[kL2EvictionsCaused];
    // Every L2 eviction ticks EVERY controller, so all cores' sampling
    // intervals stay synchronized (audited invariant).
    for (Core &c : cores_)
        c.fdp->onCacheEviction();
    Core &victim = cores_[v.owner.index()];
    if (prefBit && !v.prefBit) {
        // Pollution: the victim owner's filter learns the loss; the
        // cost is charged to the prefetching core and, when they
        // differ, also reported against the victim core.
        victim.fdp->onDemandBlockEvictedByPrefetch(v.block);
        ++self.hot[kPollutionInflicted];
        if (!(v.owner == by))
            ++victim.hot[kCrossPollutionSuffered];
    }
    if (v.dirty && params_.modelWritebacks) {
        ++victim.hot[kWritebacks];
        dram_->enqueue(v.block, BusPriority::Writeback, now, nullptr,
                      v.owner);
    }
}

void
MemorySystem::fillL1(CoreId c, BlockAddr block, bool isWrite, Cycle now)
{
    Core &self = cores_[c.index()];
    if (self.l1.probe(block)) {
        if (isWrite)
            self.l1.markDirty(block);
        return;
    }
    const CacheVictim v =
        self.l1.insert(block, false, InsertPos::Mru, isWrite, c);
    if (v.valid && v.dirty) {
        // Dirty L1 victims land in the L2 when present there; otherwise
        // they must go all the way to memory.
        if (!l2_.markDirty(v.block) && params_.modelWritebacks) {
            ++self.hot[kWritebacks];
            dram_->enqueue(v.block, BusPriority::Writeback, now, nullptr,
                          c);
        }
    }
}

void
MemorySystem::admitPending(Cycle now)
{
    while (!mshrWaitQ_.empty() && !mshrs_.full()) {
        PendingDemand p = std::move(mshrWaitQ_.front());
        mshrWaitQ_.pop_front();
        // A prefetch issued while this demand waited may have brought
        // the block in already; it is a hit now.
        if (l2_.probe(p.block) || (pcache_ && pcache_->probe(p.block))) {
            if (pcache_ && pcache_->extract(p.block)) {
                Core &self = cores_[p.core.index()];
                ++self.hot[kPcacheHits];
                self.fdp->onPrefetchUsedInCache();
                insertL2Fill(p.core, p.block, false, false, now);
            }
            fillL1(p.core, p.block, p.isWrite, now);
            p.done(now);
            continue;
        }
        if (MshrEntry *e = mshrs_.find(p.block)) {
            mergeDemand(p.core, *e, p.isWrite, std::move(p.done));
            continue;
        }
        startDemandMiss(p.core, p.block, p.isWrite, now, std::move(p.done));
    }
}

bool
MemorySystem::quiesced() const
{
    if (mshrs_.size() != 0 || !mshrWaitQ_.empty() || dram_->queued() != 0)
        return false;
    for (const Core &c : cores_)
        if (!c.prefetchQueue.empty())
            return false;
    return true;
}

void
MemorySystem::flushStats()
{
    for (Core &c : cores_) {
        for (std::size_t k = 0; k < kNumCounters; ++k) {
            if (totals_[k])
                *totals_[k] += c.hot[k];
            if (c.stats[k])
                *c.stats[k] += c.hot[k];
        }
        c.hot = Counters{};
    }
}

std::uint64_t
MemorySystem::total(Counter k) const
{
    std::uint64_t n = totals_[k]->value();
    for (const Core &c : cores_)
        n += c.hot[k];
    return n;
}

std::uint64_t
MemorySystem::count(CoreId core, Counter k) const
{
    const Core &c = cores_[core.index()];
    if (c.stats[k])
        return c.stats[k]->value() + c.hot[k];
    if (numCores_ == 1 && k < kNumTotals)
        return total(k);
    panic("%s: no per-core %s (built without per-core stat groups)",
          auditName(), kCounterInfo[k].name);
}

double
MemorySystem::avgDemandMissLatency() const
{
    return ratio(static_cast<double>(total(kDemandMissCycles)),
                 static_cast<double>(total(kDemandMissFills)));
}

void
MemorySystem::audit() const
{
    FDP_ASSERT(params_.mshrDemandReserve < mshrs_.capacity(),
               "%s: demand reserve %zu swallows all %zu MSHRs",
               auditName(), params_.mshrDemandReserve, mshrs_.capacity());
    FDP_ASSERT(busUtil_ >= 0.0 && busUtil_ <= 1.0,
               "%s: bus utilization %f outside [0, 1]", auditName(),
               busUtil_);
    for (unsigned i = 0; i < numCores_; ++i) {
        FDP_ASSERT(cores_[i].prefetchQueue.size() <= params_.prefetchQueueCap,
                   "%s: core %u prefetch request queue holds %zu of %zu "
                   "entries",
                   auditName(), i, cores_[i].prefetchQueue.size(),
                   params_.prefetchQueueCap);
        cores_[i].l1.audit();
    }
    for (const PendingDemand &p : mshrWaitQ_)
        FDP_ASSERT(p.core.index() < numCores_,
                   "%s: queued demand tagged with core %u of %u",
                   auditName(), p.core.index(), numCores_);
    l2_.audit();
    mshrs_.audit();
    dram_->audit();
    if (pcache_)
        pcache_->audit();

    // Stat scoping: every published total is exactly the sum of its
    // per-core breakdown — attribution may never invent or lose events.
    for (std::size_t k = 0; k < kNumTotals; ++k) {
        if (!cores_[0].stats[k])
            continue;
        std::uint64_t sum = 0;
        for (const Core &c : cores_)
            sum += c.stats[k]->value();
        FDP_ASSERT(sum == totals_[k]->value(),
                   "%s: per-core %s sums to %llu but the shared total "
                   "is %llu",
                   auditName(), kCounterInfo[k].name,
                   static_cast<unsigned long long>(sum),
                   static_cast<unsigned long long>(totals_[k]->value()));
    }

    // L2 evictions tick all controllers together, so their sampling
    // intervals can never drift apart.
    for (unsigned i = 1; i < numCores_; ++i)
        FDP_ASSERT(cores_[i].fdp->intervalsCompleted() ==
                       cores_[0].fdp->intervalsCompleted(),
                   "%s: core %u completed %llu sampling intervals but "
                   "core 0 completed %llu",
                   auditName(), i,
                   static_cast<unsigned long long>(
                       cores_[i].fdp->intervalsCompleted()),
                   static_cast<unsigned long long>(
                       cores_[0].fdp->intervalsCompleted()));
}

void
MemorySystem::saveState(SnapWriter &w) const
{
    FDP_ASSERT(quiesced(),
               "%s: snapshot with work in flight (%zu MSHRs, %zu stalled "
               "demands, %zu bus requests)",
               auditName(), mshrs_.size(), mshrWaitQ_.size(),
               dram_->queued());
    // The stat groups are serialized alongside this section; unflushed
    // batched counts would silently vanish from the snapshot.
    for (const Core &c : cores_)
        FDP_ASSERT(c.hot == Counters{},
                   "%s: snapshot with unflushed batched statistics (call "
                   "flushStats() first)", auditName());
    w.beginSection(snapName());
    w.putBool(pcache_ != nullptr);
    w.putDouble(busUtil_);
    w.putU64(busWindowStart_);
    w.putU64(busWindowBusy_);
    w.endSection();
    for (const Core &c : cores_)
        c.l1.saveState(w);
    l2_.saveState(w);
    mshrs_.saveState(w);
    dram_->saveState(w);
    if (pcache_)
        pcache_->saveState(w);
}

void
MemorySystem::loadState(SnapReader &r)
{
    FDP_ASSERT(quiesced(),
               "%s: restore with work in flight", auditName());
    r.openSection(snapName());
    const bool has_pcache = r.getBool();
    busUtil_ = r.getDouble();
    busWindowStart_ = r.getU64();
    busWindowBusy_ = r.getU64();
    r.closeSection();
    if (has_pcache != (pcache_ != nullptr))
        fatal("snapshot: prefetch cache is %s, snapshot has it %s",
              pcache_ ? "enabled" : "disabled",
              has_pcache ? "enabled" : "disabled");
    for (Core &c : cores_)
        c.l1.loadState(r);
    l2_.loadState(r);
    mshrs_.loadState(r);
    dram_->loadState(r);
    if (pcache_)
        pcache_->loadState(r);
}

} // namespace fdp
