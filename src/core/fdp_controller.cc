#include "core/fdp_controller.hh"

#include "prefetch/prefetcher.hh"
#include "sim/logging.hh"

namespace fdp
{

FdpController::FdpController(const FdpParams &params, Prefetcher *pf,
                             StatGroup &stats)
    : params_(params), prefetcher_(pf), filter_(params.filterBits),
      level_(params.initialLevel),
      insertPos_(params.dynamicInsertion ? InsertPos::Mid
                                         : params.staticInsertPos),
      prefSent_(stats, "pref_sent", "prefetches sent to memory"),
      prefUsed_(stats, "pref_used", "useful prefetches"),
      prefLate_(stats, "pref_late", "late (but useful) prefetches"),
      demandMisses_(stats, "demand_misses", "demand L2 misses"),
      pollutionMisses_(stats, "pollution_misses",
                       "demand misses attributed to the prefetcher"),
      intervals_(stats, "intervals", "sampling intervals completed"),
      levelDist_(stats, "level_dist",
                 "intervals spent at each aggressiveness level (1..5)",
                 kMaxAggrLevel),
      insertDist_(stats, "insert_dist",
                  "prefetch fills per insertion position (LRU..MRU)",
                  kNumInsertPos)
{
    if (params_.initialLevel < kMinAggrLevel ||
        params_.initialLevel > kMaxAggrLevel)
        fatal("FDP initial level %u out of range", params_.initialLevel);
    if (params_.intervalEvictions == 0)
        fatal("FDP interval length must be nonzero");
    if (prefetcher_ && params_.dynamicAggressiveness)
        prefetcher_->setAggressiveness(level_);
}

void
FdpController::onPrefetchSent()
{
    counters_.onPrefetchSent();
    ++prefSent_;
}

void
FdpController::onPrefetchUsedInCache()
{
    counters_.onPrefetchUsed();
    ++prefUsed_;
}

void
FdpController::onLatePrefetchMshrHit()
{
    // A late prefetch is by definition also a useful one: the lateness
    // metric is Late / Useful, so both counters move together here.
    counters_.onLatePrefetch();
    counters_.onPrefetchUsed();
    ++prefLate_;
    ++prefUsed_;
}

bool
FdpController::onDemandMiss(BlockAddr block)
{
    counters_.onDemandMiss();
    ++demandMisses_;
    if (!filter_.demandMissCausedByPrefetcher(block))
        return false;
    counters_.onPollutionMiss();
    ++pollutionMisses_;
    return true;
}

void
FdpController::onDemandBlockEvictedByPrefetch(BlockAddr block)
{
    filter_.onDemandBlockEvictedByPrefetch(block);
}

void
FdpController::onPrefetchFill(BlockAddr block)
{
    filter_.onPrefetchFill(block);
    insertDist_.sample(static_cast<std::size_t>(insertPos_));
}

void
FdpController::onBlockRefetchedByOtherCore(BlockAddr block)
{
    filter_.onPrefetchFill(block);
}

void
FdpController::onCacheEviction()
{
    if (++evictionCount_ < params_.intervalEvictions)
        return;
    evictionCount_ = 0;
    endInterval();
}

FdpController::Action
FdpController::decideAggressiveness(const FdpThresholds &t, double accuracy,
                                    double lateness, double pollution)
{
    enum { High, Medium, Low } acc;
    if (accuracy >= t.aHigh)
        acc = High;
    else if (accuracy >= t.aLow)
        acc = Medium;
    else
        acc = Low;
    const bool late = lateness > t.tLateness;
    const bool polluting = pollution > t.tPollution;

    // Paper Table 2, all 12 cases.
    switch (acc) {
      case High:
        if (late)
            return Action::Increment;   // cases 1, 2: chase timeliness
        return polluting ? Action::Decrement   // case 4
                         : Action::NoChange;   // case 3: best case
      case Medium:
        if (late && !polluting)
            return Action::Increment;   // case 5
        if (!late && !polluting)
            return Action::NoChange;    // case 7
        return Action::Decrement;       // cases 6, 8
      case Low:
      default:
        if (!late && !polluting)
            return Action::NoChange;    // case 11
        return Action::Decrement;       // cases 9, 10, 12
    }
}

FdpController::Action
FdpController::decideAccuracyOnly(const FdpThresholds &t, double accuracy)
{
    if (accuracy >= t.aHigh)
        return Action::Increment;
    if (accuracy >= t.aLow)
        return Action::NoChange;
    return Action::Decrement;
}

InsertPos
FdpController::decideInsertion(const FdpThresholds &t, double pollution)
{
    if (pollution < t.pLow)
        return InsertPos::Mid;
    if (pollution < t.pHigh)
        return InsertPos::Lru4;
    return InsertPos::Lru;
}

void
FdpController::endInterval()
{
    counters_.endInterval();
    ++intervals_;

    const double accuracy = counters_.accuracy();
    const double lateness = counters_.lateness();
    const double pollution = counters_.pollution();

    if (params_.dynamicAggressiveness) {
        const Action action =
            params_.accuracyOnly
                ? decideAccuracyOnly(params_.thresholds, accuracy)
                : decideAggressiveness(params_.thresholds, accuracy,
                                       lateness, pollution);
        if (action == Action::Increment && level_ < kMaxAggrLevel)
            ++level_;
        else if (action == Action::Decrement && level_ > kMinAggrLevel)
            --level_;
        if (prefetcher_)
            prefetcher_->setAggressiveness(level_);
    }
    levelDist_.sample(level_ - 1);

    if (params_.dynamicInsertion)
        insertPos_ = decideInsertion(params_.thresholds, pollution);

    if (endOfIntervalHook_)
        endOfIntervalHook_();
}

void
FdpController::setPrefetcher(Prefetcher *pf)
{
    prefetcher_ = pf;
    if (prefetcher_ && params_.dynamicAggressiveness)
        prefetcher_->setAggressiveness(level_);
}

void
FdpController::reset()
{
    counters_.reset();
    filter_.clear();
    level_ = params_.initialLevel;
    insertPos_ = params_.dynamicInsertion ? InsertPos::Mid
                                          : params_.staticInsertPos;
    evictionCount_ = 0;
    if (prefetcher_ && params_.dynamicAggressiveness)
        prefetcher_->setAggressiveness(level_);
}

template <typename Self, typename Io>
void
FdpController::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.u8(self.level_, kMinAggrLevel, kMaxAggrLevel, "level");
    io.u8(self.insertPos_, InsertPos::Lru, InsertPos::Mru,
          "insertion position");
    io.u64(self.evictionCount_);
    io.end();
    io.child(self.counters_);
    io.child(self.filter_);
}

void
FdpController::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
FdpController::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
    if (prefetcher_ && params_.dynamicAggressiveness)
        prefetcher_->setAggressiveness(level_);
}

void
FdpController::audit() const
{
    FDP_ASSERT(level_ >= kMinAggrLevel && level_ <= kMaxAggrLevel,
               "%s: dynamic configuration counter %u outside [%u, %u]",
               auditName(), level_, kMinAggrLevel, kMaxAggrLevel);
    FDP_ASSERT(static_cast<std::uint8_t>(insertPos_) < kNumInsertPos,
               "%s: insertion policy %u is not a legal InsertPos",
               auditName(), static_cast<unsigned>(insertPos_));
    FDP_ASSERT(evictionCount_ < params_.intervalEvictions,
               "%s: eviction count %llu reached interval length %llu "
               "without closing the interval",
               auditName(),
               static_cast<unsigned long long>(evictionCount_),
               static_cast<unsigned long long>(params_.intervalEvictions));
    FDP_ASSERT(prefUsed_.value() <= prefSent_.value(),
               "%s: %llu prefetches used but only %llu sent", auditName(),
               static_cast<unsigned long long>(prefUsed_.value()),
               static_cast<unsigned long long>(prefSent_.value()));
    FDP_ASSERT(prefLate_.value() <= prefUsed_.value(),
               "%s: %llu late prefetches but only %llu used", auditName(),
               static_cast<unsigned long long>(prefLate_.value()),
               static_cast<unsigned long long>(prefUsed_.value()));
    FDP_ASSERT(pollutionMisses_.value() <= demandMisses_.value(),
               "%s: %llu pollution misses but only %llu demand misses",
               auditName(),
               static_cast<unsigned long long>(pollutionMisses_.value()),
               static_cast<unsigned long long>(demandMisses_.value()));
    if (prefetcher_ && params_.dynamicAggressiveness)
        FDP_ASSERT(prefetcher_->aggressiveness() == level_,
                   "%s: prefetcher runs at level %u but controller is at "
                   "%u",
                   auditName(), prefetcher_->aggressiveness(), level_);
    counters_.audit();
    filter_.audit();
}

double
FdpController::lifetimeAccuracy() const
{
    return ratio(static_cast<double>(prefUsed_.value()),
                 static_cast<double>(prefSent_.value()));
}

double
FdpController::lifetimeLateness() const
{
    return ratio(static_cast<double>(prefLate_.value()),
                 static_cast<double>(prefUsed_.value()));
}

double
FdpController::lifetimePollution() const
{
    return ratio(static_cast<double>(pollutionMisses_.value()),
                 static_cast<double>(demandMisses_.value()));
}

PrefetchTier
FdpController::accuracyTier() const
{
    // No completed interval yet (cold start or measurement-boundary
    // reset): no evidence against the stream, so schedule it neutrally.
    if (intervals_.value() == 0)
        return PrefetchTier::High;
    const double acc = counters_.accuracy();
    if (acc >= params_.thresholds.aHigh)
        return PrefetchTier::High;
    if (acc >= params_.thresholds.aLow)
        return PrefetchTier::Medium;
    return PrefetchTier::Low;
}

} // namespace fdp
