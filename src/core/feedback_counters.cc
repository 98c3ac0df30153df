#include "core/feedback_counters.hh"

#include <cmath>

#include "sim/stats.hh"

namespace fdp
{

void
FeedbackCounters::endInterval()
{
    prefTotal_.endInterval();
    usedTotal_.endInterval();
    lateTotal_.endInterval();
    demandTotal_.endInterval();
    pollutionTotal_.endInterval();
}

double
FeedbackCounters::accuracy() const
{
    return ratio(usedTotal_.value(), prefTotal_.value());
}

double
FeedbackCounters::lateness() const
{
    return ratio(lateTotal_.value(), usedTotal_.value());
}

double
FeedbackCounters::pollution() const
{
    return ratio(pollutionTotal_.value(), demandTotal_.value());
}

void
FeedbackCounters::audit() const
{
    const IntervalCounter *all[] = {&prefTotal_, &usedTotal_, &lateTotal_,
                                    &demandTotal_, &pollutionTotal_};
    const char *names[] = {"pref", "used", "late", "demand", "pollution"};
    for (std::size_t i = 0; i < 5; ++i) {
        const double v = all[i]->value();
        FDP_ASSERT(std::isfinite(v) && v >= 0.0,
                   "%s: %s-total smoothed value %f is not a finite "
                   "non-negative number",
                   auditName(), names[i], v);
    }
    FDP_ASSERT(lateTotal_.intervalValue() <= usedTotal_.intervalValue(),
               "%s: %llu late prefetches exceed %llu used this interval",
               auditName(),
               static_cast<unsigned long long>(lateTotal_.intervalValue()),
               static_cast<unsigned long long>(usedTotal_.intervalValue()));
    FDP_ASSERT(lateTotal_.value() <= usedTotal_.value(),
               "%s: smoothed late-total %f exceeds smoothed used-total %f",
               auditName(), lateTotal_.value(), usedTotal_.value());
    FDP_ASSERT(
        pollutionTotal_.intervalValue() <= demandTotal_.intervalValue(),
        "%s: %llu pollution misses exceed %llu demand misses this interval",
        auditName(),
        static_cast<unsigned long long>(pollutionTotal_.intervalValue()),
        static_cast<unsigned long long>(demandTotal_.intervalValue()));
    FDP_ASSERT(pollutionTotal_.value() <= demandTotal_.value(),
               "%s: smoothed pollution-total %f exceeds smoothed "
               "demand-total %f",
               auditName(), pollutionTotal_.value(), demandTotal_.value());
}

template <typename Self, typename Io>
void
FeedbackCounters::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    for (auto *c : {&self.prefTotal_, &self.usedTotal_, &self.lateTotal_,
                    &self.demandTotal_, &self.pollutionTotal_})
        IntervalCounter::snapFields(*c, io);
    io.end();
}

void
FeedbackCounters::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
FeedbackCounters::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

void
FeedbackCounters::reset()
{
    prefTotal_.reset();
    usedTotal_.reset();
    lateTotal_.reset();
    demandTotal_.reset();
    pollutionTotal_.reset();
}

} // namespace fdp
