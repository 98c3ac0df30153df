#include "manage/prefetcher_manager.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "sim/logging.hh"

namespace fdp
{

ManagedPrefetcher::ManagedPrefetcher(
    const ManagerParams &params,
    std::vector<std::unique_ptr<Prefetcher>> zoo)
    : params_(params), zoo_(std::move(zoo)), score_(zoo_.size(), 0.0),
      wins_(zoo_.size(), 0)
{
    if (zoo_.empty())
        fatal("prefetcher manager needs a nonempty zoo");
    if (params_.exploreIntervals == 0 || params_.exploitIntervals == 0)
        fatal("prefetcher manager needs nonzero explore/exploit intervals");
    for (std::size_t i = 0; i < zoo_.size(); ++i) {
        if (!zoo_[i])
            fatal("prefetcher manager: zoo candidate %zu is null", i);
        for (std::size_t k = i + 1; k < zoo_.size(); ++k)
            if (zoo_[k] &&
                std::strcmp(zoo_[i]->name(), zoo_[k]->name()) == 0)
                fatal("prefetcher manager: duplicate zoo candidate `%s'",
                      zoo_[i]->name());
    }
    setAggressiveness(params_.initialLevel);
    activate(0);
}

void
ManagedPrefetcher::setAggressiveness(unsigned level)
{
    Prefetcher::setAggressiveness(level);
    zoo_[active_]->setAggressiveness(level);
}

void
ManagedPrefetcher::reset()
{
    for (auto &pf : zoo_)
        pf->reset();
    phase_ = Phase::Explore;
    exploreIdx_ = 0;
    incumbent_ = 0;
    haveIncumbent_ = false;
    exploitBase_ = 0.0;
    primed_ = false;
    intervalInPhase_ = 0;
    std::fill(score_.begin(), score_.end(), 0.0);
    std::fill(wins_.begin(), wins_.end(), std::uint64_t{0});
    lastRetired_ = 0;
    lastCycle_ = 0;
    ticks_ = 0;
    activate(0);
}

void
ManagedPrefetcher::activate(std::size_t idx)
{
    active_ = idx;
    // The incoming candidate inherits the published FDP level, so
    // throttling decisions survive reconfiguration.
    zoo_[active_]->setAggressiveness(level_);
}

void
ManagedPrefetcher::finishRound()
{
    // Strict > keeps ties at the lowest index: deterministic, and the
    // zoo's order encodes the tie-break preference.
    std::size_t best = 0;
    for (std::size_t i = 1; i < score_.size(); ++i)
        if (score_[i] > score_[best])
            best = i;
    // Hysteresis: an incumbent is only dethroned by a challenger that
    // beats its CURRENT round score by a clear margin, so two
    // near-equal candidates do not thrash.
    if (haveIncumbent_ && best != incumbent_) {
        const double bar =
            score_[incumbent_] * (1.0 + params_.hysteresisPct / 100.0);
        if (score_[best] <= bar)
            best = incumbent_;
    }
    incumbent_ = best;
    haveIncumbent_ = true;
    // The collapse baseline is NOT the election score: exploration
    // intervals misprice a candidate (cold caches inflate them, the
    // retraining that follows reactivation deflates them). The first
    // exploit interval primes the baseline instead.
    exploitBase_ = 0.0;
    ++wins_[best];
    phase_ = Phase::Exploit;
    intervalInPhase_ = 0;
    // Park the cursor inside the zoo while exploiting: the walk that
    // just finished left it one past the end, which the audit (and any
    // snapshot taken mid-exploit) would reject as a desync.
    exploreIdx_ = 0;
    activate(best);
}

void
ManagedPrefetcher::startExploreRound()
{
    phase_ = Phase::Explore;
    intervalInPhase_ = 0;
    std::fill(score_.begin(), score_.end(), 0.0);
    exploreIdx_ = 0;
    activate(0);
}

void
ManagedPrefetcher::intervalTick(const ManagerSignal &signal)
{
    ++ticks_;
    if (!primed_) {
        // First boundary after construction/reset: the cumulative
        // retired/cycle baselines are unknown (cycles do not restart at
        // a measurement boundary), so this tick only calibrates.
        primed_ = true;
        lastRetired_ = signal.retired;
        lastCycle_ = signal.cycle;
        return;
    }
    const std::uint64_t dInsts =
        signal.retired >= lastRetired_ ? signal.retired - lastRetired_ : 0;
    const Cycle dCycles =
        signal.cycle >= lastCycle_ ? signal.cycle - lastCycle_ : 0;
    lastRetired_ = signal.retired;
    lastCycle_ = signal.cycle;
    const double ipc =
        dCycles > 0 ? static_cast<double>(dInsts) /
                          static_cast<double>(dCycles)
                    : 0.0;
    // Interval IPC carries the performance signal; the feedback metrics
    // break near-ties toward candidates that earn their bandwidth
    // (penalize pollution, mildly reward accuracy).
    const double score = ipc * (1.0 - 0.5 * signal.pollution) *
                         (1.0 + 0.05 * signal.accuracy);

    if (phase_ == Phase::Explore) {
        score_[exploreIdx_] += score;
        if (++intervalInPhase_ < params_.exploreIntervals)
            return;
        intervalInPhase_ = 0;
        if (++exploreIdx_ < zoo_.size())
            activate(exploreIdx_);
        else
            finishRound();
        return;
    }
    // Exploit: ride the incumbent until the schedule expires — or until
    // its score collapses below the best it has shown this phase,
    // which is how a program phase change looks from here. The first
    // exploit interval covers the incumbent's retraining after
    // reactivation, so it primes the baseline instead of being judged
    // against one.
    if (intervalInPhase_ == 0) {
        exploitBase_ = score;
    } else {
        const bool collapsed =
            params_.reexploreDropPct > 0.0 &&
            score <
                exploitBase_ * (1.0 - params_.reexploreDropPct / 100.0);
        if (collapsed) {
            startExploreRound();
            return;
        }
        exploitBase_ = std::max(exploitBase_, score);
    }
    if (++intervalInPhase_ >= params_.exploitIntervals)
        startExploreRound();
}

void
ManagedPrefetcher::audit() const
{
    Prefetcher::audit();
    FDP_ASSERT(!zoo_.empty(), "%s: empty zoo", auditName());
    FDP_ASSERT(active_ < zoo_.size(),
               "%s: active candidate %zu outside zoo of %zu", auditName(),
               active_, zoo_.size());
    FDP_ASSERT(exploreIdx_ < zoo_.size(),
               "%s: exploration cursor %zu outside zoo of %zu",
               auditName(), exploreIdx_, zoo_.size());
    FDP_ASSERT(incumbent_ < zoo_.size(),
               "%s: incumbent %zu outside zoo of %zu", auditName(),
               incumbent_, zoo_.size());
    FDP_ASSERT(phase_ != Phase::Explore || active_ == exploreIdx_,
               "%s: exploring candidate %zu but candidate %zu is live",
               auditName(), exploreIdx_, active_);
    const unsigned bound = phase_ == Phase::Explore
                               ? params_.exploreIntervals
                               : params_.exploitIntervals;
    FDP_ASSERT(intervalInPhase_ < bound,
               "%s: %u intervals into a phase bounded by %u", auditName(),
               intervalInPhase_, bound);
    FDP_ASSERT(score_.size() == zoo_.size() && wins_.size() == zoo_.size(),
               "%s: bookkeeping sized %zu/%zu for a zoo of %zu",
               auditName(), score_.size(), wins_.size(), zoo_.size());
    FDP_ASSERT(zoo_[active_]->aggressiveness() == level_,
               "%s: active candidate `%s' at level %u, manager at %u",
               auditName(), zoo_[active_]->name(),
               zoo_[active_]->aggressiveness(), level_);
    for (const auto &pf : zoo_)
        pf->audit();
}

template <typename Self, typename Io>
void
ManagedPrefetcher::snapFields(Self &self, Io &io)
{
    const std::size_t last = self.zoo_.size() - 1;
    io.begin(self.snapName());
    io.u8(self.level_, kMinAggrLevel, kMaxAggrLevel, "level");
    io.u64(self.ticks_);
    io.u8(self.phase_, Phase::Explore, Phase::Exploit, "phase");
    io.u32(self.active_, 0, last, "active candidate");
    io.u32(self.exploreIdx_, 0, last, "explore cursor");
    io.u32(self.incumbent_, 0, last, "incumbent");
    io.u8(self.haveIncumbent_);
    io.f64(self.exploitBase_);
    io.u8(self.primed_);
    io.u32(self.intervalInPhase_);
    io.u64(self.lastRetired_);
    io.u64(self.lastCycle_);
    io.fixedU32(self.zoo_.size(), "zoo holds");
    for (std::size_t i = 0; i < self.zoo_.size(); ++i) {
        io.fixedStr(self.zoo_[i]->name(), "zoo candidate");
        io.f64(self.score_[i]);
        io.u64(self.wins_[i]);
    }
    // The zoo's own state nests as an opaque blob: each candidate
    // writes its usual single section into an inner body, so the
    // machine-level snapshot still sees exactly one "manager" section.
    io.nested(self.zoo_);
    io.end();
}

void
ManagedPrefetcher::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
ManagedPrefetcher::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

void
ManagedPrefetcher::doObserve(const PrefetchObservation &obs,
                             std::vector<BlockAddr> &out,
                             std::size_t budget)
{
    zoo_[active_]->observe(obs, out, budget);
}

} // namespace fdp
