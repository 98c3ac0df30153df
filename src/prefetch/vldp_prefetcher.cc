#include "prefetch/vldp_prefetcher.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fdp
{

namespace
{

/** Saturating 2-bit counter bump. */
void
bumpAccuracy(std::uint8_t &acc, bool correct)
{
    if (correct) {
        if (acc < 3)
            ++acc;
    } else if (acc > 0) {
        --acc;
    }
}

} // namespace

VldpPrefetcher::VldpPrefetcher(const VldpPrefetcherParams &params)
    : params_(params), dhb_(params.dhbEntries)
{
    if (params_.dhbEntries == 0)
        fatal("vldp prefetcher needs a nonzero delta history buffer");
    if (params_.dptEntries == 0)
        fatal("vldp prefetcher needs nonzero delta prediction tables");
    for (auto &table : dpt_)
        table.resize(params_.dptEntries);
    setAggressiveness(params_.initialLevel);
}

void
VldpPrefetcher::reset()
{
    for (auto &e : dhb_)
        e = DhbEntry{};
    opt_ = {};
    for (auto &table : dpt_)
        for (auto &e : table)
            e = DptEntry{};
    tick_ = 0;
}

template <typename Self, typename Io>
void
VldpPrefetcher::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.u8(self.level_, kMinAggrLevel, kMaxAggrLevel, "level");
    io.u64(self.tick_);
    io.fixedU32(self.dhb_.size(), "DHB holds");
    for (auto &e : self.dhb_) {
        io.u8(e.valid);
        io.u64(e.pageTag);
        io.u8(e.lastOffset, 0, kVldpBlocksPerPage - 1, "DHB last offset");
        io.u8(e.firstOffset, 0, kVldpBlocksPerPage - 1, "DHB first offset");
        for (auto &d : e.deltas)
            io.u8(d);
        io.u8(e.numDeltas, 0, kVldpHistLen, "DHB delta count");
        io.u64(e.lastUse);
    }
    io.fixedU32(kVldpBlocksPerPage, "OPT holds");
    for (auto &e : self.opt_) {
        io.u8(e.valid);
        io.u8(e.pred);
        io.u8(e.accuracy);
    }
    io.fixedU32(self.params_.dptEntries, "DPT holds");
    for (auto &table : self.dpt_) {
        for (auto &e : table) {
            io.u8(e.valid);
            for (auto &d : e.key)
                io.u8(d);
            io.u8(e.pred);
            io.u8(e.accuracy);
        }
    }
    io.end();
}

void
VldpPrefetcher::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
VldpPrefetcher::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

std::size_t
VldpPrefetcher::findPage(std::uint64_t pageTag) const
{
    for (std::size_t i = 0; i < dhb_.size(); ++i)
        if (dhb_[i].valid && dhb_[i].pageTag == pageTag)
            return i;
    return dhb_.size();
}

std::size_t
VldpPrefetcher::victimSlot() const
{
    std::size_t victim = 0;
    for (std::size_t i = 0; i < dhb_.size(); ++i) {
        if (!dhb_[i].valid)
            return i;
        if (dhb_[i].lastUse < dhb_[victim].lastUse)
            victim = i;
    }
    return victim;
}

std::size_t
VldpPrefetcher::dptIndexOf(
    unsigned len, const std::array<std::int8_t, kVldpHistLen> &key) const
{
    // FNV-1a over the first `len` deltas; distinct history lengths hash
    // into distinct tables, so only the live prefix participates.
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned j = 0; j < len; ++j) {
        h ^= static_cast<std::uint8_t>(key[j]);
        h *= 1099511628211ull;
    }
    return h % params_.dptEntries;
}

void
VldpPrefetcher::trainDpt(unsigned len,
                         const std::array<std::int8_t, kVldpHistLen> &key,
                         std::int8_t delta)
{
    DptEntry &e = dpt_[len - 1][dptIndexOf(len, key)];
    bool match = e.valid;
    for (unsigned j = 0; match && j < len; ++j)
        match = e.key[j] == key[j];
    if (!match) {
        // Replace-on-zero: a confident resident entry survives one miss.
        if (e.valid && e.accuracy > 0) {
            --e.accuracy;
            return;
        }
        e.valid = true;
        e.key = {};
        for (unsigned j = 0; j < len; ++j)
            e.key[j] = key[j];
        e.pred = delta;
        e.accuracy = 1;
        return;
    }
    if (e.pred == delta) {
        bumpAccuracy(e.accuracy, true);
    } else if (e.accuracy == 0) {
        e.pred = delta;
        e.accuracy = 1;
    } else {
        --e.accuracy;
    }
}

std::int8_t
VldpPrefetcher::predictDelta(
    unsigned histLen, const std::array<std::int8_t, kVldpHistLen> &hist) const
{
    for (unsigned len = std::min(histLen, kVldpHistLen); len >= 1; --len) {
        const DptEntry &e = dpt_[len - 1][dptIndexOf(len, hist)];
        if (!e.valid || e.accuracy == 0)
            continue;
        bool match = true;
        for (unsigned j = 0; match && j < len; ++j)
            match = e.key[j] == hist[j];
        if (match)
            return e.pred;
    }
    return 0;
}

void
VldpPrefetcher::audit() const
{
    Prefetcher::audit();
    for (std::size_t i = 0; i < dhb_.size(); ++i) {
        const DhbEntry &e = dhb_[i];
        if (!e.valid)
            continue;
        FDP_ASSERT(e.lastOffset < kVldpBlocksPerPage &&
                       e.firstOffset < kVldpBlocksPerPage,
                   "%s: DHB entry %zu offsets (%u, %u) outside page",
                   auditName(), i, e.lastOffset, e.firstOffset);
        FDP_ASSERT(e.numDeltas <= kVldpHistLen,
                   "%s: DHB entry %zu holds %u deltas (max %u)",
                   auditName(), i, e.numDeltas, kVldpHistLen);
        for (unsigned j = 0; j < e.numDeltas; ++j)
            FDP_ASSERT(e.deltas[j] != 0 &&
                           e.deltas[j] > -static_cast<int>(
                               kVldpBlocksPerPage) &&
                           e.deltas[j] < static_cast<int>(kVldpBlocksPerPage),
                       "%s: DHB entry %zu delta[%u] = %d illegal",
                       auditName(), i, j, static_cast<int>(e.deltas[j]));
        FDP_ASSERT(e.lastUse <= tick_,
                   "%s: DHB entry %zu last used at tick %llu, after "
                   "current tick %llu",
                   auditName(), i,
                   static_cast<unsigned long long>(e.lastUse),
                   static_cast<unsigned long long>(tick_));
        for (std::size_t k = i + 1; k < dhb_.size(); ++k)
            FDP_ASSERT(!dhb_[k].valid || dhb_[k].pageTag != e.pageTag,
                       "%s: page %llx tracked in DHB slots %zu and %zu",
                       auditName(),
                       static_cast<unsigned long long>(e.pageTag), i, k);
    }
    for (unsigned len = 1; len <= kVldpHistLen; ++len) {
        const auto &table = dpt_[len - 1];
        for (std::size_t i = 0; i < table.size(); ++i) {
            const DptEntry &e = table[i];
            if (!e.valid)
                continue;
            FDP_ASSERT(dptIndexOf(len, e.key) == i,
                       "%s: DPT%u entry stored in slot %zu but hashes "
                       "to %zu",
                       auditName(), len, i, dptIndexOf(len, e.key));
            FDP_ASSERT(e.accuracy <= 3,
                       "%s: DPT%u entry %zu accuracy %u overflows 2 bits",
                       auditName(), len, i, e.accuracy);
            FDP_ASSERT(e.pred != 0,
                       "%s: DPT%u entry %zu predicts a zero delta",
                       auditName(), len, i);
        }
    }
    for (std::size_t i = 0; i < opt_.size(); ++i) {
        const OptEntry &e = opt_[i];
        if (!e.valid)
            continue;
        FDP_ASSERT(e.accuracy <= 3,
                   "%s: OPT entry %zu accuracy %u overflows 2 bits",
                   auditName(), i, e.accuracy);
        FDP_ASSERT(e.pred != 0,
                   "%s: OPT entry %zu predicts a zero delta", auditName(),
                   i);
    }
}

void
VldpPrefetcher::doObserve(const PrefetchObservation &obs,
                          std::vector<BlockAddr> &out, std::size_t budget)
{
    ++tick_;
    const std::uint64_t page = obs.addr >> kVldpPageShift;
    const auto offset = static_cast<std::uint8_t>(
        (obs.addr >> kBlockShift) & (kVldpBlocksPerPage - 1));
    const BlockAddr pageBlockBase =
        static_cast<BlockAddr>(page)
        << (kVldpPageShift - kBlockShift);

    std::size_t slot = findPage(page);
    if (slot == dhb_.size()) {
        // First recorded access to this page: allocate and consult the
        // OPT so even the first touch can trigger a prefetch.
        slot = victimSlot();
        DhbEntry &e = dhb_[slot];
        e = DhbEntry{};
        e.valid = true;
        e.pageTag = page;
        e.lastOffset = offset;
        e.firstOffset = offset;
        e.lastUse = tick_;
        const OptEntry &o = opt_[offset];
        if (o.valid && o.accuracy > 0 && budget >= 1) {
            const int next = offset + o.pred;
            if (next >= 0 && next < static_cast<int>(kVldpBlocksPerPage))
                out.push_back(pageBlockBase + static_cast<unsigned>(next));
        }
        return;
    }

    DhbEntry &e = dhb_[slot];
    e.lastUse = tick_;
    const int rawDelta = static_cast<int>(offset)
                         - static_cast<int>(e.lastOffset);
    if (rawDelta == 0)
        return;
    const auto delta = static_cast<std::int8_t>(rawDelta);

    // The page's second access trains the OPT: first offset -> delta.
    if (e.numDeltas == 0) {
        OptEntry &o = opt_[e.firstOffset];
        if (!o.valid) {
            o.valid = true;
            o.pred = delta;
            o.accuracy = 1;
        } else if (o.pred == delta) {
            bumpAccuracy(o.accuracy, true);
        } else if (o.accuracy == 0) {
            o.pred = delta;
            o.accuracy = 1;
        } else {
            --o.accuracy;
        }
    }

    // Each DPT level learns: last-j-deltas -> the delta that followed.
    for (unsigned len = 1; len <= e.numDeltas; ++len)
        trainDpt(len, e.deltas, delta);

    // Push the new delta onto the history (most recent first).
    for (unsigned j = kVldpHistLen - 1; j >= 1; --j)
        e.deltas[j] = e.deltas[j - 1];
    e.deltas[0] = delta;
    if (e.numDeltas < kVldpHistLen)
        ++e.numDeltas;
    e.lastOffset = offset;

    // Multi-degree chained prediction: each predicted delta extends the
    // speculative history the next lookup keys on.
    std::array<std::int8_t, kVldpHistLen> hist = e.deltas;
    unsigned histLen = e.numDeltas;
    int cur = offset;
    const unsigned deg = degree();
    std::size_t produced = 0;
    for (unsigned d = 0; d < deg; ++d) {
        if (produced >= budget)
            break;
        const std::int8_t pred = predictDelta(histLen, hist);
        if (pred == 0)
            break;
        cur += pred;
        if (cur < 0 || cur >= static_cast<int>(kVldpBlocksPerPage))
            break;
        out.push_back(pageBlockBase + static_cast<unsigned>(cur));
        ++produced;
        for (unsigned j = kVldpHistLen - 1; j >= 1; --j)
            hist[j] = hist[j - 1];
        hist[0] = pred;
        if (histLen < kVldpHistLen)
            ++histLen;
    }
}

} // namespace fdp
