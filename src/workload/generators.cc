#include "workload/generators.hh"

#include <iterator>
#include <utility>

#include "sim/logging.hh"

namespace fdp
{

namespace
{

/** Block deltas the delta walker cycles through (see pDelta). */
constexpr unsigned kDeltaCycle[] = {1, 3, 2};

/** Highest index of @p v, or 0 when it is empty. */
template <typename V>
std::size_t
lastIndex(const V &v)
{
    return v.empty() ? 0 : v.size() - 1;
}

} // namespace

SyntheticWorkload::SyntheticWorkload(const SyntheticParams &params)
    : params_(params), rng_(params.seed)
{
    const double mix = params_.pStream + params_.pHot + params_.pChase +
                       params_.pRandom + params_.pDelta;
    if (mix > 1.0)
        fatal("workload %s: op-mix probabilities sum to %f > 1",
              params_.name.c_str(), mix);
    if (params_.pChase > 0.0 &&
        (params_.chaseBlocks & (params_.chaseBlocks - 1)) != 0)
        fatal("workload %s: chaseBlocks must be a power of two",
              params_.name.c_str());
    if (params_.pStream > 0.0 && params_.numStreams == 0)
        fatal("workload %s: pStream > 0 needs numStreams > 0",
              params_.name.c_str());
    reset();
}

void
SyntheticWorkload::reset()
{
    rng_ = Rng(params_.seed);
    streams_.assign(params_.numStreams, Stream{});
    for (unsigned i = 0; i < params_.numStreams; ++i) {
        streams_[i].pc = 0x4000 + 4 * i;
        respawnStream(streams_[i]);
    }
    nextStream_ = 0;
    chaseCur_ = rng_.range(std::max<unsigned>(params_.chaseBlocks, 1));
    chaseSeqAddr_ = kChaseRegionBase;

    // Only draw for the delta walker when it can ever run: workloads
    // predating the band replay their exact historical rng sequence.
    deltaPage_ = 0;
    deltaOffset_ = 1;
    deltaPhase_ = 0;
    deltaWord_ = 0;
    opCount_ = 0;
    if (params_.pDelta > 0.0 || params_.phaseOps != 0)
        deltaPage_ = rng_.range(kDeltaRegionSize / kDeltaPageBytes);

    hotOrder_.clear();
    hotCursor_ = 0;
    if (params_.hotPattern == SyntheticParams::HotPattern::Sweep &&
        params_.hotBlocks > 0) {
        hotOrder_.resize(params_.hotBlocks);
        for (std::uint32_t i = 0; i < params_.hotBlocks; ++i)
            hotOrder_[i] = i;
        // Fisher-Yates with the workload's own Rng: the same seed always
        // produces the same (scattered, untrainable) sweep order.
        for (std::size_t i = hotOrder_.size(); i > 1; --i)
            std::swap(hotOrder_[i - 1], hotOrder_[rng_.range(i)]);
    }
}

void
SyntheticWorkload::respawnStream(Stream &s)
{
    const Addr span = kStreamRegionSize / kBlockBytes;
    s.cur = kStreamRegionBase + blockBase(rng_.range(span));
    s.dir = rng_.chance(params_.descendingFrac) ? -1 : 1;
    s.remainingBytes =
        std::uint64_t{params_.streamLenBlocks} * kBlockBytes;
}

MicroOp
SyntheticWorkload::streamOp()
{
    Stream &s = streams_[nextStream_];
    // Wrap-around compare instead of a division on the per-op path.
    if (++nextStream_ >= streams_.size())
        nextStream_ = 0;

    MicroOp op;
    op.kind = rng_.range(100) < params_.storePercent ? OpKind::Store
                                                     : OpKind::Load;
    op.addr = s.cur;
    op.pc = s.pc;

    const Addr step = params_.accessStrideBytes;
    s.cur = s.dir > 0 ? s.cur + step : s.cur - step;
    s.remainingBytes = s.remainingBytes > step ? s.remainingBytes - step : 0;
    if (s.remainingBytes == 0)
        respawnStream(s);
    return op;
}

MicroOp
SyntheticWorkload::hotOp()
{
    MicroOp op;
    op.kind = rng_.range(100) < params_.storePercent ? OpKind::Store
                                                     : OpKind::Load;
    Addr block;
    if (params_.hotPattern == SyntheticParams::HotPattern::Sweep) {
        block = hotOrder_[hotCursor_];
        if (++hotCursor_ >= hotOrder_.size())
            hotCursor_ = 0;
    } else {
        block = rng_.range(params_.hotBlocks);
    }
    const Addr word = rng_.range(kBlockBytes / 8) * 8;
    op.addr = kHotRegionBase + blockBase(block) + word;
    op.pc = 0x8000 + 4 * (rng_.range(16));
    return op;
}

MicroOp
SyntheticWorkload::chaseOp()
{
    MicroOp op;
    op.kind = OpKind::Load;
    op.depPrevLoad = true;
    op.pc = 0xc000;

    if (params_.chaseSequential) {
        // Sequential dependent walk: prefetchable, but the demand rate is
        // bounded only by the chain latency, so prefetches run late.
        op.addr = chaseSeqAddr_;
        chaseSeqAddr_ += 8;
        return op;
    }

    // Permuted cycle through the chase region: a full-period affine step
    // keeps the walk deterministic but scattered (unprefetchable).
    const std::uint64_t n = params_.chaseBlocks;
    chaseCur_ = (chaseCur_ * 5 + 1) & (n - 1);
    op.addr = kChaseRegionBase + blockBase(chaseCur_);
    return op;
}

MicroOp
SyntheticWorkload::randomOp()
{
    MicroOp op;
    op.kind = rng_.range(100) < params_.storePercent ? OpKind::Store
                                                     : OpKind::Load;
    const Addr span = kRandomRegionSize / kBlockBytes;
    op.addr = kRandomRegionBase + blockBase(rng_.range(span));
    op.pc = 0x10000 + 4 * (rng_.range(64));
    return op;
}

MicroOp
SyntheticWorkload::deltaOp()
{
    MicroOp op;
    op.kind = rng_.range(100) < params_.storePercent ? OpKind::Store
                                                     : OpKind::Load;
    op.addr = kDeltaRegionBase + deltaPage_ * kDeltaPageBytes +
              blockBase(deltaOffset_) + 8 * deltaWord_;
    op.pc = 0x14000;

    // Eight sequential words per block (the L1 absorbs all but the
    // first), THEN advance to the next block of the delta cycle.
    if (++deltaWord_ < kBlockBytes / 8)
        return op;
    deltaWord_ = 0;

    const unsigned d = kDeltaCycle[deltaPhase_];
    if (++deltaPhase_ >= std::size(kDeltaCycle))
        deltaPhase_ = 0;
    if (deltaOffset_ + d >= kDeltaPageBytes / kBlockBytes) {
        // Page exhausted: jump to a fresh random page but keep the
        // delta cycle running, so the PATTERN survives page crossings
        // even though raw addresses do not.
        deltaPage_ = rng_.range(kDeltaRegionSize / kDeltaPageBytes);
        deltaOffset_ = 1;
    } else {
        deltaOffset_ += d;
    }
    return op;
}

MicroOp
SyntheticWorkload::next()
{
    // The phase flip swaps the stream and delta bands' shares, so a
    // phased workload alternates which prefetcher its traffic trains.
    double pStream = params_.pStream;
    double pDelta = params_.pDelta;
    if (params_.phaseOps != 0 &&
        (opCount_ / params_.phaseOps) % 2 != 0)
        std::swap(pStream, pDelta);
    ++opCount_;

    double x = rng_.uniform();
    if (x < pStream)
        return streamOp();
    x -= pStream;
    if (x < params_.pHot)
        return hotOp();
    x -= params_.pHot;
    if (x < params_.pChase)
        return chaseOp();
    x -= params_.pChase;
    if (x < params_.pRandom)
        return randomOp();
    x -= params_.pRandom;
    if (x < pDelta)
        return deltaOp();
    return MicroOp{};  // Int op
}

template <typename Self, typename Io>
void
SyntheticWorkload::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.fixedStr(self.params_.name, "benchmark");
    std::uint64_t rng[4];
    self.rng_.stateWords(rng);
    for (std::uint64_t &word : rng)
        io.u64(word);
    if constexpr (Io::kLoading)
        self.rng_.setStateWords(rng);
    io.fixedU32(self.streams_.size(), "streams");
    for (auto &s : self.streams_) {
        io.u64(s.cur);
        io.u64(s.remainingBytes);
        io.i64(s.dir);
        io.u64(s.pc);
    }
    // The generator indexes by its cursors unchecked, so a restore
    // bounds each one (a cursor over an empty table stays 0).
    io.u32(self.nextStream_, 0, lastIndex(self.streams_), "stream cursor");
    io.u64(self.chaseCur_);
    io.u64(self.chaseSeqAddr_);
    io.u64(self.hotCursor_, 0, lastIndex(self.hotOrder_), "hot cursor");
    // Snapshot format v2: the delta walker and the phase counter.
    io.u64(self.deltaPage_);
    io.u32(self.deltaOffset_, 0, kDeltaPageBytes / kBlockBytes - 1,
           "delta offset");
    io.u32(self.deltaPhase_, 0, std::size(kDeltaCycle) - 1, "delta phase");
    io.u32(self.deltaWord_, 0, kBlockBytes / 8 - 1, "delta word");
    io.u64(self.opCount_);
    io.end();
}

void
SyntheticWorkload::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
SyntheticWorkload::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

PhasedWorkload::PhasedWorkload(std::unique_ptr<Workload> a,
                               std::unique_ptr<Workload> b,
                               std::uint64_t phaseOps, std::string name)
    : a_(std::move(a)), b_(std::move(b)), phaseOps_(phaseOps),
      name_(std::move(name))
{
    if (phaseOps_ == 0)
        fatal("phased workload needs a nonzero phase length");
}

unsigned
PhasedWorkload::currentPhase() const
{
    return static_cast<unsigned>((count_ / phaseOps_) % 2);
}

MicroOp
PhasedWorkload::next()
{
    Workload &w = currentPhase() == 0 ? *a_ : *b_;
    ++count_;
    return w.next();
}

void
PhasedWorkload::reset()
{
    a_->reset();
    b_->reset();
    count_ = 0;
}

RebasedWorkload::RebasedWorkload(std::unique_ptr<Workload> inner, Addr base)
    : inner_(std::move(inner)), base_(base)
{
    if (!inner_)
        fatal("rebased workload needs an inner workload");
}

MicroOp
RebasedWorkload::next()
{
    MicroOp op = inner_->next();
    if (op.kind != OpKind::Int)
        op.addr += base_;
    return op;
}

void
RebasedWorkload::audit() const
{
    if (const auto *a = dynamic_cast<const Auditable *>(inner_.get()))
        a->audit();
}

} // namespace fdp
