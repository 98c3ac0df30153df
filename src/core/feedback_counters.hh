/**
 * @file
 * Interval-sampled feedback counters (paper Section 3.2).
 *
 * Each hardware counter accumulates events during a sampling interval;
 * at the interval boundary its smoothed value is updated by Equation 1:
 *
 *     CounterValue = (CounterValueAtBeginningOfInterval
 *                     + CounterValueDuringInterval) / 2
 *
 * which weights the most recent interval most heavily while retaining
 * exponentially-decayed history.
 */

#ifndef FDP_CORE_FEEDBACK_COUNTERS_HH
#define FDP_CORE_FEEDBACK_COUNTERS_HH

#include <cstdint>

#include "sim/check.hh"
#include "sim/snapshot.hh"

namespace fdp
{

/** One interval-halved feedback counter. */
class IntervalCounter
{
  public:
    /** Count one event in the current interval. */
    void increment(std::uint64_t n = 1) { interval_ += n; }

    /** Apply Equation 1 at an interval boundary and clear the interval. */
    void
    endInterval()
    {
        smoothed_ = (smoothed_ + static_cast<double>(interval_)) / 2.0;
        interval_ = 0;
    }

    /** Smoothed value as of the last interval boundary. */
    double value() const { return smoothed_; }

    /** Raw count accumulated in the current (unfinished) interval. */
    std::uint64_t intervalValue() const { return interval_; }

    void
    reset()
    {
        interval_ = 0;
        smoothed_ = 0.0;
    }

    /** The counter's fields (FeedbackCounters owns the section). */
    template <typename Self, typename Io>
    static void
    snapFields(Self &self, Io &io)
    {
        io.u64(self.interval_);
        io.f64(self.smoothed_);
    }

  private:
    friend struct AuditCorrupter;

    std::uint64_t interval_ = 0;
    double smoothed_ = 0.0;
};

/**
 * The full set of FDP feedback counters (paper Section 3.1) plus the
 * derived accuracy / lateness / pollution metrics.
 */
class FeedbackCounters : public Auditable, public Snapshottable
{
  public:
    /** A prefetch request was sent to memory. */
    void onPrefetchSent() { prefTotal_.increment(); }

    /** A demand request consumed a prefetched block (cache or MSHR). */
    void onPrefetchUsed() { usedTotal_.increment(); }

    /** A demand request hit a still-in-flight prefetch MSHR. */
    void onLatePrefetch() { lateTotal_.increment(); }

    /** A demand request missed in the L2. */
    void onDemandMiss() { demandTotal_.increment(); }

    /** A demand L2 miss was attributed to the prefetcher by the filter. */
    void onPollutionMiss() { pollutionTotal_.increment(); }

    /** Apply Equation 1 to every counter. */
    void endInterval();

    /** Accuracy = used-total / pref-total (0 when nothing sent). */
    double accuracy() const;

    /** Lateness = late-total / used-total (0 when nothing used). */
    double lateness() const;

    /** Pollution = pollution-total / demand-total (0 when no misses). */
    double pollution() const;

    void reset();

    const IntervalCounter &prefTotal() const { return prefTotal_; }
    const IntervalCounter &usedTotal() const { return usedTotal_; }
    const IntervalCounter &lateTotal() const { return lateTotal_; }
    const IntervalCounter &demandTotal() const { return demandTotal_; }
    const IntervalCounter &pollutionTotal() const { return pollutionTotal_; }

    /**
     * Invariants: every smoothed value is finite and non-negative, and
     * the coupled counters stay ordered the way the controller drives
     * them — late <= used and pollution <= demand, both for the raw
     * in-progress interval and for the smoothed values (Equation 1
     * preserves the ordering inductively).
     */
    void audit() const override;
    const char *auditName() const override { return "feedback_counters"; }

    /** Serialize all five counters (interval + smoothed value each). */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return "fdp/counters"; }

  private:
    friend struct AuditCorrupter;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    IntervalCounter prefTotal_;
    IntervalCounter usedTotal_;
    IntervalCounter lateTotal_;
    IntervalCounter demandTotal_;
    IntervalCounter pollutionTotal_;
};

} // namespace fdp

#endif // FDP_CORE_FEEDBACK_COUNTERS_HH
