/**
 * @file
 * Lightweight statistics framework.
 *
 * Components declare ScalarStat / DistributionStat members and register
 * them with a StatGroup; the group knows how to dump every statistic with
 * a hierarchical name, in the spirit of gem5's stats package but sized for
 * this project.
 */

#ifndef FDP_SIM_STATS_HH
#define FDP_SIM_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace fdp
{

class StatGroup;

/** A single named 64-bit event counter. */
class ScalarStat
{
  public:
    /** Register this statistic as @p name under @p group. */
    ScalarStat(StatGroup &group, std::string name, std::string desc);

    ScalarStat(const ScalarStat &) = delete;
    ScalarStat &operator=(const ScalarStat &) = delete;

    ScalarStat &operator++() { ++value_; return *this; }
    ScalarStat &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend class StatGroup;  // snapshots value_

    std::string name_;
    std::string desc_;
    std::uint64_t value_ = 0;
};

/** A named bucketed distribution (fixed bucket count known up front). */
// fdp-analyze: suppress(audit-coverage, stats are observers; they
// record simulated state but nothing reads them back mid-run)
class DistributionStat
{
  public:
    /**
     * Register a distribution with @p buckets buckets; bucket labels are
     * supplied at dump time by position or default to their index.
     */
    DistributionStat(StatGroup &group, std::string name, std::string desc,
                     std::size_t buckets);

    DistributionStat(const DistributionStat &) = delete;
    DistributionStat &operator=(const DistributionStat &) = delete;

    /** Record one sample in bucket @p bucket (out of range is a bug). */
    void sample(std::size_t bucket, std::uint64_t count = 1);

    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t total() const;

    /** Fraction of all samples falling in bucket @p i (0 if empty). */
    double fraction(std::size_t i) const;

    void reset();

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend class StatGroup;  // snapshots buckets_

    std::string name_;
    std::string desc_;
    std::vector<std::uint64_t> buckets_;
};

/**
 * Owner of a related set of statistics. Groups nest by name prefix only;
 * there is no object hierarchy to keep the framework cheap.
 */
// fdp-analyze: suppress(audit-coverage, stats are observers; they
// record simulated state but nothing reads them back mid-run)
class StatGroup : public Snapshottable
{
  public:
    explicit StatGroup(std::string name)
        : name_(std::move(name)), snapName_("stats/" + name_)
    {
    }

    const std::string &name() const { return name_; }

    /** Dump "group.stat value # desc" lines for every registered stat. */
    void dump(std::ostream &out) const;

    /** Zero every registered statistic. */
    void resetAll();

    /**
     * Serialize every registered statistic by name. loadState()
     * requires the restoring group to register the same statistics in
     * the same order (a fresh, identically-assembled machine does).
     */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;
    const char *snapName() const override { return snapName_.c_str(); }

    const std::vector<ScalarStat *> &scalars() const { return scalars_; }
    const std::vector<DistributionStat *> &
    distributions() const
    {
        return distributions_;
    }

  private:
    friend class ScalarStat;
    friend class DistributionStat;

    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    std::string name_;
    std::string snapName_;
    std::vector<ScalarStat *> scalars_;
    std::vector<DistributionStat *> distributions_;
};

/** Safe ratio helper: returns 0 when the denominator is 0. */
inline double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace fdp

#endif // FDP_SIM_STATS_HH
