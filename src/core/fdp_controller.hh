/**
 * @file
 * The Feedback Directed Prefetching controller (paper Section 3).
 *
 * Owns the feedback counters, the pollution filter, the Dynamic
 * Configuration Counter, and the dynamic insertion decision. The memory
 * system invokes the on*() hooks as the corresponding microarchitectural
 * events occur; at every sampling-interval boundary (T_interval L2
 * evictions) the controller recomputes accuracy / lateness / pollution and
 * applies the Table 2 aggressiveness policy and the Section 3.3.2
 * insertion policy.
 *
 * The controller also runs with both dynamic features disabled, in which
 * case it is a pure metrics observer: Figures 2 and 3 of the paper are
 * produced that way.
 */

#ifndef FDP_CORE_FDP_CONTROLLER_HH
#define FDP_CORE_FDP_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "core/feedback_counters.hh"
#include "core/insertion.hh"
#include "core/pollution_filter.hh"
#include "dram/dram_backend.hh"
#include "prefetch/aggressiveness.hh"
#include "sim/check.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace fdp
{

class Prefetcher;

/** Classification thresholds (paper Section 4.3). */
struct FdpThresholds
{
    double aHigh = 0.75;       ///< accuracy >= aHigh  -> "high"
    double aLow = 0.40;        ///< accuracy >= aLow   -> "medium"
    double tLateness = 0.01;   ///< lateness > tLateness -> "late"
    double tPollution = 0.005; ///< pollution > tPollution -> "polluting"
    double pLow = 0.005;       ///< insertion: pollution < pLow  -> MID
    double pHigh = 0.25;       ///< insertion: pollution < pHigh -> LRU-4
};

/** FDP configuration. */
struct FdpParams
{
    /** Enable Table 2 dynamic aggressiveness control. */
    bool dynamicAggressiveness = true;
    /** Enable Section 3.3.2 dynamic insertion control. */
    bool dynamicInsertion = true;
    /** Section 5.6 ablation: throttle on accuracy alone. */
    bool accuracyOnly = false;
    /** T_interval: L2 evictions per sampling interval (paper: 8192). */
    std::uint64_t intervalEvictions = 8192;
    /** Pollution filter size in bits (paper: 4096). */
    std::size_t filterBits = 4096;
    /** Initial Dynamic Configuration Counter value (paper: 3). */
    unsigned initialLevel = kInitialAggrLevel;
    /** Insertion position used while dynamicInsertion is off. */
    InsertPos staticInsertPos = InsertPos::Mru;
    /**
     * Audit/report label; empty keeps the default "fdp_controller".
     * The multi-core machine labels each per-core controller (e.g.
     * "fdp_controller.c2") so audit failures name the core.
     */
    std::string label;
    FdpThresholds thresholds;
};

/** The feedback controller of the paper. */
class FdpController : public Auditable, public Snapshottable
{
  public:
    /** The three Table 2 update actions. */
    enum class Action : std::uint8_t { Decrement, NoChange, Increment };

    /**
     * @param params  configuration
     * @param pf      prefetcher to throttle (may be null for observing)
     * @param stats   group receiving the controller's lifetime statistics
     */
    FdpController(const FdpParams &params, Prefetcher *pf, StatGroup &stats);

    /// @name Hooks invoked by the memory system
    /// @{

    /** A prefetch went to memory (counts toward pref-total). */
    void onPrefetchSent();

    /** A demand access hit a prefetched block resident in the L2. */
    void onPrefetchUsedInCache();

    /**
     * A demand request hit an in-flight prefetch MSHR: the prefetch is
     * late (and also useful, so both counters move; see DESIGN.md).
     */
    void onLatePrefetchMshrHit();

    /**
     * A demand request missed in the L2. Returns true when the pollution
     * filter attributes the miss to the prefetcher.
     */
    bool onDemandMiss(BlockAddr block);

    /** A demand-fetched block was evicted by a prefetch fill. */
    void onDemandBlockEvictedByPrefetch(BlockAddr block);

    /** A prefetch fill arrived from memory (clears its filter bit). */
    void onPrefetchFill(BlockAddr block);

    /**
     * Another core's prefetch fill brought @p block back into the
     * shared cache: clear the local filter bit so later misses on the
     * block are no longer attributed to pollution (the data is present
     * again, exactly as after a local prefetch fill).
     */
    void onBlockRefetchedByOtherCore(BlockAddr block);

    /** Any valid L2 block was evicted; drives the sampling interval. */
    void onCacheEviction();

    /// @}

    /** Position at which the next prefetch fill is inserted. */
    InsertPos insertPos() const { return insertPos_; }

    /** Current Dynamic Configuration Counter value (1..5). */
    unsigned level() const { return level_; }

    /**
     * Accuracy tier of this core's prefetch stream for DRAM scheduling
     * (paper Table 2 thresholds on the smoothed accuracy): High until
     * the first sampling interval completes, then High / Medium / Low
     * by the aHigh / aLow cut points. The FR-FCFS controller schedules
     * low-tier prefetches strictly behind demands and may drop them
     * under queue pressure.
     */
    PrefetchTier accuracyTier() const;

    /** Lifetime (whole-run) metrics for Figures 2/3 style reporting. */
    double lifetimeAccuracy() const;
    double lifetimeLateness() const;
    double lifetimePollution() const;

    /** Smoothed (Equation 1) metrics as of the last interval boundary. */
    const FeedbackCounters &counters() const { return counters_; }

    /** Distribution of counter values over intervals (Figure 6). */
    const DistributionStat &levelDistribution() const { return levelDist_; }

    /** Distribution of prefetch insertion positions (Figure 8). */
    const DistributionStat &
    insertDistribution() const
    {
        return insertDist_;
    }

    std::uint64_t intervalsCompleted() const { return intervals_.value(); }

    /**
     * Install @p hook to run after every completed sampling interval;
     * the experiment harness uses it to audit the whole machine at the
     * paper's natural checkpoint cadence.
     */
    void
    setEndOfIntervalHook(std::function<void()> hook)
    {
        endOfIntervalHook_ = std::move(hook);
    }

    /**
     * Attach (or detach, with nullptr) the prefetcher to throttle. The
     * warm-up boundary runs the controller detached, then attaches the
     * per-configuration prefetcher; the level is re-published so the
     * prefetcher and the controller always agree.
     */
    void setPrefetcher(Prefetcher *pf);

    /**
     * Return every dynamic decision to its construction-time value and
     * clear the counters and the pollution filter (measurement-boundary
     * reset; the registered lifetime statistics are reset separately by
     * their StatGroup).
     */
    void reset();

    /**
     * Invariants: the Dynamic Configuration Counter stays in [1,5], the
     * insertion policy is a legal enum value, the eviction count stays
     * below the interval length, lifetime counters are ordered
     * (used <= sent, late <= used, pollution <= demand misses), the
     * throttled prefetcher agrees on the level, and the owned counters
     * and pollution filter pass their own audits.
     */
    void audit() const override;
    const char *
    auditName() const override
    {
        return params_.label.empty() ? "fdp_controller"
                                     : params_.label.c_str();
    }

    /**
     * Pure policy function for Table 2: classify the metrics and return
     * the configured counter update. Exposed so tests can exercise all
     * 12 cases directly.
     */
    static Action decideAggressiveness(const FdpThresholds &t,
                                       double accuracy, double lateness,
                                       double pollution);

    /** Section 5.6 ablation policy: accuracy-only throttling. */
    static Action decideAccuracyOnly(const FdpThresholds &t,
                                     double accuracy);

    /** Section 3.3.2 insertion policy. */
    static InsertPos decideInsertion(const FdpThresholds &t,
                                     double pollution);

    /**
     * Serialize the dynamic decision state (level, insertion position,
     * eviction count) plus the owned counters and pollution filter.
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "fdp"; }

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    void endInterval();

    std::function<void()> endOfIntervalHook_;
    FdpParams params_;
    Prefetcher *prefetcher_;
    FeedbackCounters counters_;
    PollutionFilter filter_;
    unsigned level_;
    InsertPos insertPos_;
    std::uint64_t evictionCount_ = 0;

    // Lifetime statistics (whole-run, never halved).
    ScalarStat prefSent_;
    ScalarStat prefUsed_;
    ScalarStat prefLate_;
    ScalarStat demandMisses_;
    ScalarStat pollutionMisses_;
    ScalarStat intervals_;
    DistributionStat levelDist_;
    DistributionStat insertDist_;
};

} // namespace fdp

#endif // FDP_CORE_FDP_CONTROLLER_HH
