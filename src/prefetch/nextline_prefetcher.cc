#include "prefetch/nextline_prefetcher.hh"

namespace fdp
{

NextLinePrefetcher::NextLinePrefetcher(const NextLinePrefetcherParams &params)
    : params_(params)
{
    setAggressiveness(params_.initialLevel);
}

void
NextLinePrefetcher::reset()
{
    tick_ = 0;
}

template <typename Self, typename Io>
void
NextLinePrefetcher::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.u8(self.level_, kMinAggrLevel, kMaxAggrLevel, "level");
    io.u64(self.tick_);
    io.end();
}

void
NextLinePrefetcher::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
NextLinePrefetcher::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

void
NextLinePrefetcher::doObserve(const PrefetchObservation &obs,
                              std::vector<BlockAddr> &out,
                              std::size_t budget)
{
    ++tick_;
    if (!obs.miss)
        return;
    const unsigned deg = degree();
    std::size_t produced = 0;
    for (unsigned j = 1; j <= deg; ++j) {
        if (produced >= budget)
            break;
        out.push_back(obs.block + j);
        ++produced;
    }
}

} // namespace fdp
