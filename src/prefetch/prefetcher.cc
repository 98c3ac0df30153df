#include "prefetch/prefetcher.hh"

#include "sim/logging.hh"

namespace fdp
{

void
Prefetcher::setAggressiveness(unsigned level)
{
    if (level < kMinAggrLevel || level > kMaxAggrLevel)
        panic("%s: bad aggressiveness level %u", name(), level);
    level_ = level;
}

void
Prefetcher::audit() const
{
    FDP_ASSERT(level_ >= kMinAggrLevel && level_ <= kMaxAggrLevel,
               "%s: aggressiveness level %u outside [%u, %u]", auditName(),
               level_, kMinAggrLevel, kMaxAggrLevel);
}

} // namespace fdp
