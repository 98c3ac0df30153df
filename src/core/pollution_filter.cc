#include "core/pollution_filter.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fdp
{

PollutionFilter::PollutionFilter(std::size_t bits)
    : bits_(bits, false), mask_(bits - 1)
{
    if (bits == 0 || (bits & (bits - 1)) != 0)
        fatal("pollution filter size must be a power of two, got %zu", bits);
    shift_ = 0;
    while ((std::size_t{1} << shift_) < bits)
        ++shift_;
}

std::size_t
PollutionFilter::indexOf(BlockAddr block) const
{
    // Figure 4: CacheBlockAddress[11:0] XOR CacheBlockAddress[23:12],
    // generalized to the configured filter width.
    return static_cast<std::size_t>((block ^ (block >> shift_)) & mask_);
}

void
PollutionFilter::onDemandBlockEvictedByPrefetch(BlockAddr block)
{
    bits_[indexOf(block)] = true;
}

void
PollutionFilter::onPrefetchFill(BlockAddr block)
{
    bits_[indexOf(block)] = false;
}

bool
PollutionFilter::demandMissCausedByPrefetcher(BlockAddr block) const
{
    return bits_[indexOf(block)];
}

std::size_t
PollutionFilter::popcount() const
{
    return static_cast<std::size_t>(
        std::count(bits_.begin(), bits_.end(), true));
}

void
PollutionFilter::clear()
{
    std::fill(bits_.begin(), bits_.end(), false);
}

template <typename Self, typename Io>
void
PollutionFilter::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.fixedU32(self.bits_.size(), "bits");
    // Eight filter bits per byte, bit i of a byte for entry base + i.
    for (std::size_t base = 0; base < self.bits_.size(); base += 8) {
        const std::size_t n =
            std::min<std::size_t>(8, self.bits_.size() - base);
        unsigned byte = 0;
        for (std::size_t i = 0; i < n; ++i)
            byte |= (self.bits_[base + i] ? 1u : 0u) << i;
        io.u8(byte);
        if constexpr (Io::kLoading)
            for (std::size_t i = 0; i < n; ++i)
                self.bits_[base + i] = ((byte >> i) & 1u) != 0;
    }
    io.end();
}

void
PollutionFilter::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
PollutionFilter::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

void
PollutionFilter::audit() const
{
    const std::size_t bits = bits_.size();
    FDP_ASSERT(bits != 0 && (bits & (bits - 1)) == 0,
               "%s: size %zu is not a power of two", auditName(), bits);
    FDP_ASSERT(mask_ == bits - 1,
               "%s: index mask %zu does not match size %zu", auditName(),
               mask_, bits);
    FDP_ASSERT((std::size_t{1} << shift_) == bits,
               "%s: index shift %u does not match size %zu", auditName(),
               shift_, bits);
    FDP_ASSERT(popcount() <= bits, "%s: %zu set bits in a %zu-bit filter",
               auditName(), popcount(), bits);
}

} // namespace fdp
