/**
 * @file
 * Next-line prefetcher: the zoo's sandbox fallback.
 *
 * On every L2 miss it requests the next `degree` sequential cache
 * blocks. No learned state beyond the observation tick; it exists as
 * the cheapest safe candidate for the runtime manager to fall back to
 * when no pattern-based prefetcher earns its bandwidth.
 */

#ifndef FDP_PREFETCH_NEXTLINE_PREFETCHER_HH
#define FDP_PREFETCH_NEXTLINE_PREFETCHER_HH

#include <cstdint>

#include "prefetch/prefetcher.hh"

namespace fdp
{

/** Configuration knobs for the next-line prefetcher. */
struct NextLinePrefetcherParams
{
    /** Initial aggressiveness level (1..5). */
    unsigned initialLevel = kInitialAggrLevel;
};

/** Sequential next-N-blocks prefetcher. */
class NextLinePrefetcher : public Prefetcher
{
  public:
    explicit NextLinePrefetcher(const NextLinePrefetcherParams &params = {});

    const char *name() const override { return "nextline"; }
    void reset() override;

    unsigned degree() const { return kNextLineAggrTable[level_].degree; }

    /** Serialize the level and the tick. */
    void saveState(SnapWriter &w) const override;
    void loadState(SnapReader &r) override;

  private:
    template <typename Self, typename Io>
    static void snapFields(Self &self, Io &io);

    void doObserve(const PrefetchObservation &obs,
                   std::vector<BlockAddr> &out,
                   std::size_t budget) override;

    NextLinePrefetcherParams params_;
    std::uint64_t tick_ = 0;
};

} // namespace fdp

#endif // FDP_PREFETCH_NEXTLINE_PREFETCHER_HH
