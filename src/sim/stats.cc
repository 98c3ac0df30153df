#include "sim/stats.hh"

#include <iomanip>
#include <numeric>
#include <ostream>

#include "sim/logging.hh"

namespace fdp
{

ScalarStat::ScalarStat(StatGroup &group, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    group.scalars_.push_back(this);
}

DistributionStat::DistributionStat(StatGroup &group, std::string name,
                                   std::string desc, std::size_t buckets)
    : name_(std::move(name)), desc_(std::move(desc)), buckets_(buckets, 0)
{
    group.distributions_.push_back(this);
}

void
DistributionStat::sample(std::size_t bucket, std::uint64_t count)
{
    if (bucket >= buckets_.size())
        panic("distribution %s: bucket %zu out of %zu", name_.c_str(),
              bucket, buckets_.size());
    buckets_[bucket] += count;
}

std::uint64_t
DistributionStat::total() const
{
    return std::accumulate(buckets_.begin(), buckets_.end(),
                           std::uint64_t{0});
}

double
DistributionStat::fraction(std::size_t i) const
{
    const std::uint64_t sum = total();
    return sum == 0 ? 0.0
                    : static_cast<double>(buckets_.at(i)) /
                          static_cast<double>(sum);
}

void
DistributionStat::reset()
{
    for (auto &b : buckets_)
        b = 0;
}

void
StatGroup::dump(std::ostream &out) const
{
    for (const auto *s : scalars_) {
        out << name_ << '.' << std::setw(32) << std::left << s->name()
            << ' ' << std::setw(12) << std::right << s->value() << "  # "
            << s->desc() << '\n';
    }
    for (const auto *d : distributions_) {
        for (std::size_t i = 0; i < d->numBuckets(); ++i) {
            out << name_ << '.' << d->name() << '[' << i << "] "
                << std::setw(12) << std::right << d->bucket(i) << "  # "
                << d->desc() << '\n';
        }
    }
}

void
StatGroup::resetAll()
{
    for (auto *s : scalars_)
        s->reset();
    for (auto *d : distributions_)
        d->reset();
}

template <typename Self, typename Io>
void
StatGroup::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.fixedU32(self.scalars_.size(), "scalars");
    for (ScalarStat *s : self.scalars_) {
        io.fixedStr(s->name(), "scalar");
        io.u64(s->value_);
    }
    io.fixedU32(self.distributions_.size(), "distributions");
    for (DistributionStat *d : self.distributions_) {
        io.fixedStr(d->name(), "distribution");
        io.fixedU32(d->numBuckets(), "buckets");
        for (std::uint64_t &count : d->buckets_)
            io.u64(count);
    }
    io.end();
}

void
StatGroup::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
StatGroup::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

} // namespace fdp
