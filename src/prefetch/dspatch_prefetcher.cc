#include "prefetch/dspatch_prefetcher.hh"

#include "sim/logging.hh"

namespace fdp
{

namespace
{

std::uint32_t
rotl32(std::uint32_t x, unsigned s)
{
    s &= 31;
    return s == 0 ? x : (x << s) | (x >> (32 - s));
}

std::uint32_t
rotr32(std::uint32_t x, unsigned s)
{
    s &= 31;
    return s == 0 ? x : (x >> s) | (x << (32 - s));
}

unsigned
popcount32(std::uint32_t x)
{
    unsigned n = 0;
    for (; x != 0; x &= x - 1)
        ++n;
    return n;
}

/** Saturating 2-bit counter bump. */
void
bumpScore(std::uint8_t &score, bool good)
{
    if (good) {
        if (score < 3)
            ++score;
    } else if (score > 0) {
        --score;
    }
}

} // namespace

DspatchPrefetcher::DspatchPrefetcher(const DspatchPrefetcherParams &params)
    : params_(params), pb_(params.pbEntries),
      spt_(params.sptEntries)
{
    if (params_.pbEntries == 0)
        fatal("dspatch prefetcher needs a nonzero page buffer");
    if (params_.sptEntries == 0)
        fatal("dspatch prefetcher needs a nonzero signature table");
    setAggressiveness(params_.initialLevel);
}

void
DspatchPrefetcher::reset()
{
    for (auto &e : pb_)
        e = PbEntry{};
    for (auto &e : spt_)
        e = SptEntry{};
    tick_ = 0;
}

template <typename Self, typename Io>
void
DspatchPrefetcher::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.u8(self.level_, kMinAggrLevel, kMaxAggrLevel, "level");
    io.u64(self.tick_);
    io.fixedU32(self.pb_.size(), "page buffer holds");
    for (auto &e : self.pb_) {
        io.u8(e.valid);
        io.u64(e.regionTag);
        io.u32(e.pattern);
        io.u8(e.triggerOffset, 0, kDspatchBlocksPerRegion - 1,
              "PB trigger offset");
        io.u64(e.triggerPc);
        io.u64(e.lastUse);
    }
    io.fixedU32(self.spt_.size(), "signature table holds");
    for (auto &e : self.spt_) {
        io.u8(e.valid);
        io.u64(e.tag);
        io.u32(e.covP);
        io.u32(e.accP);
        io.u8(e.covScore);
        io.u8(e.accScore);
    }
    io.end();
}

void
DspatchPrefetcher::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
DspatchPrefetcher::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

std::size_t
DspatchPrefetcher::sptIndexOf(Addr pc) const
{
    const Addr x = pc >> 2;
    return (x ^ (x >> 8)) % spt_.size();
}

void
DspatchPrefetcher::retireRegion(const PbEntry &e)
{
    // Anchor the pattern at the trigger offset so the signature learns
    // shape relative to its trigger, not absolute region position.
    const std::uint32_t anchored = rotr32(e.pattern, e.triggerOffset);
    SptEntry &s = spt_[sptIndexOf(e.triggerPc)];
    if (!s.valid || s.tag != e.triggerPc) {
        s.valid = true;
        s.tag = e.triggerPc;
        s.covP = anchored;
        s.accP = anchored;
        s.covScore = 1;
        s.accScore = 1;
        return;
    }
    // CovP is judged on precision (how much of what it would have
    // prefetched was touched); a drained score re-learns from scratch
    // so a phase change cannot leave a bloated union behind.
    const unsigned covHit = popcount32(s.covP & anchored);
    bumpScore(s.covScore, 2 * covHit >= popcount32(s.covP));
    if (s.covScore == 0) {
        s.covP = anchored;
        s.covScore = 1;
    } else {
        s.covP |= anchored;
    }
    // AccP is judged on recall (how much of the touched footprint it
    // still covers); the intersection can only shrink, so an emptied
    // pattern restarts from the fresh observation.
    const unsigned accHit = popcount32(s.accP & anchored);
    bumpScore(s.accScore, 2 * accHit >= popcount32(anchored));
    s.accP &= anchored;
    if (s.accP == 0) {
        s.accP = anchored;
        s.accScore = 1;
    }
}

void
DspatchPrefetcher::predict(const SptEntry &s, const PbEntry &trigger,
                           double busUtil, std::vector<BlockAddr> &out,
                           std::size_t budget) const
{
    // Accuracy-biased pattern when bandwidth is tight or FDP has
    // throttled us down; coverage-biased otherwise. A drained score
    // disqualifies a pattern, falling back to its dual.
    bool useAcc = busUtil >= kDspatchBwThreshold || level_ <= 2;
    if (useAcc && s.accScore == 0)
        useAcc = false;
    else if (!useAcc && s.covScore == 0)
        useAcc = true;
    std::uint32_t pat =
        rotl32(useAcc ? s.accP : s.covP, trigger.triggerOffset);
    pat &= ~(1u << trigger.triggerOffset);  // the trigger block is demand
    if (pat == 0)
        return;

    const BlockAddr regionBlockBase =
        static_cast<BlockAddr>(trigger.regionTag)
        << (kDspatchRegionShift - kBlockShift);
    const unsigned deg = degree();
    std::size_t produced = 0;
    // Issue near-to-far from the trigger so a tight degree keeps the
    // most immediately useful blocks.
    for (unsigned dist = 1; dist < kDspatchBlocksPerRegion; ++dist) {
        const int lo = static_cast<int>(trigger.triggerOffset) -
                       static_cast<int>(dist);
        const int hi = static_cast<int>(trigger.triggerOffset) +
                       static_cast<int>(dist);
        for (const int off : {hi, lo}) {
            if (off < 0 || off >= static_cast<int>(kDspatchBlocksPerRegion))
                continue;
            if ((pat & (1u << static_cast<unsigned>(off))) == 0)
                continue;
            if (produced >= deg || produced >= budget)
                return;
            out.push_back(regionBlockBase + static_cast<unsigned>(off));
            ++produced;
        }
    }
}

void
DspatchPrefetcher::audit() const
{
    Prefetcher::audit();
    for (std::size_t i = 0; i < pb_.size(); ++i) {
        const PbEntry &e = pb_[i];
        if (!e.valid)
            continue;
        FDP_ASSERT(e.triggerOffset < kDspatchBlocksPerRegion,
                   "%s: PB entry %zu trigger offset %u outside region",
                   auditName(), i, e.triggerOffset);
        FDP_ASSERT((e.pattern & (1u << e.triggerOffset)) != 0,
                   "%s: PB entry %zu lost its trigger bit (pattern %x, "
                   "trigger %u)",
                   auditName(), i, e.pattern, e.triggerOffset);
        FDP_ASSERT(e.lastUse <= tick_,
                   "%s: PB entry %zu last used at tick %llu, after "
                   "current tick %llu",
                   auditName(), i,
                   static_cast<unsigned long long>(e.lastUse),
                   static_cast<unsigned long long>(tick_));
        for (std::size_t k = i + 1; k < pb_.size(); ++k)
            FDP_ASSERT(!pb_[k].valid || pb_[k].regionTag != e.regionTag,
                       "%s: region %llx tracked in PB slots %zu and %zu",
                       auditName(),
                       static_cast<unsigned long long>(e.regionTag), i, k);
    }
    for (std::size_t i = 0; i < spt_.size(); ++i) {
        const SptEntry &e = spt_[i];
        if (!e.valid)
            continue;
        FDP_ASSERT(sptIndexOf(e.tag) == i,
                   "%s: SPT entry for PC %llx stored in slot %zu but "
                   "hashes to %zu",
                   auditName(), static_cast<unsigned long long>(e.tag), i,
                   sptIndexOf(e.tag));
        FDP_ASSERT(e.covP != 0 && e.accP != 0,
                   "%s: SPT entry %zu holds an empty pattern", auditName(),
                   i);
        FDP_ASSERT(e.covScore <= 3 && e.accScore <= 3,
                   "%s: SPT entry %zu scores (%u, %u) overflow 2 bits",
                   auditName(), i, e.covScore, e.accScore);
    }
}

void
DspatchPrefetcher::doObserve(const PrefetchObservation &obs,
                             std::vector<BlockAddr> &out,
                             std::size_t budget)
{
    ++tick_;
    const std::uint64_t region = obs.addr >> kDspatchRegionShift;
    const auto offset = static_cast<std::uint8_t>(
        (obs.addr >> kBlockShift) & (kDspatchBlocksPerRegion - 1));

    // Subsequent access to a tracked region: just record the footprint.
    for (PbEntry &e : pb_) {
        if (e.valid && e.regionTag == region) {
            e.pattern |= 1u << offset;
            e.lastUse = tick_;
            return;
        }
    }

    // Region trigger: retire the LRU victim's learned footprint, then
    // track the new region and replay this PC's learned pattern.
    std::size_t victim = 0;
    for (std::size_t i = 0; i < pb_.size(); ++i) {
        if (!pb_[i].valid) {
            victim = i;
            break;
        }
        if (pb_[i].lastUse < pb_[victim].lastUse)
            victim = i;
    }
    if (pb_[victim].valid)
        retireRegion(pb_[victim]);
    PbEntry &e = pb_[victim];
    e = PbEntry{};
    e.valid = true;
    e.regionTag = region;
    e.pattern = 1u << offset;
    e.triggerOffset = offset;
    e.triggerPc = obs.pc;
    e.lastUse = tick_;

    const SptEntry &s = spt_[sptIndexOf(obs.pc)];
    if (s.valid && s.tag == obs.pc)
        predict(s, e, obs.busUtil, out, budget);
}

} // namespace fdp
