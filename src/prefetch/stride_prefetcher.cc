#include "prefetch/stride_prefetcher.hh"

#include "sim/logging.hh"

namespace fdp
{

StridePrefetcher::StridePrefetcher(const StridePrefetcherParams &params)
    : params_(params), table_(params.tableSize)
{
    if (params_.tableSize == 0)
        fatal("stride prefetcher needs a nonzero table size");
    setAggressiveness(params_.initialLevel);
}

void
StridePrefetcher::reset()
{
    for (auto &e : table_)
        e = Entry{};
    tick_ = 0;
}

template <typename Self, typename Io>
void
StridePrefetcher::snapFields(Self &self, Io &io)
{
    io.begin(self.snapName());
    io.u8(self.level_, kMinAggrLevel, kMaxAggrLevel, "level");
    io.u64(self.tick_);
    io.fixedU32(self.table_.size(), "table holds");
    for (auto &e : self.table_) {
        io.u8(e.valid);
        io.u64(e.tag);
        io.i64(e.lastAddr);
        io.i64(e.stride);
        io.u8(e.state, State::Initial, State::NoPred, "entry state");
        io.u64(e.lastUse);
    }
    io.end();
}

void
StridePrefetcher::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
StridePrefetcher::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
}

std::size_t
StridePrefetcher::indexOf(Addr pc) const
{
    // Memory instructions are word-aligned; drop the low bits and fold
    // the upper bits in so distinct PCs spread across the table.
    const Addr x = pc >> 2;
    return (x ^ (x >> 8)) % table_.size();
}

StridePrefetcher::State
StridePrefetcher::entryState(Addr pc) const
{
    const Entry &e = table_[indexOf(pc)];
    return (e.valid && e.tag == pc) ? e.state : State::NoPred;
}

void
StridePrefetcher::audit() const
{
    Prefetcher::audit();
    for (std::size_t i = 0; i < table_.size(); ++i) {
        const Entry &e = table_[i];
        if (!e.valid)
            continue;
        FDP_ASSERT(static_cast<std::uint8_t>(e.state) <=
                       static_cast<std::uint8_t>(State::NoPred),
                   "%s: entry %zu in illegal FSM state %u", auditName(), i,
                   static_cast<unsigned>(e.state));
        FDP_ASSERT(indexOf(e.tag) == i,
                   "%s: entry for PC %llx stored in slot %zu but hashes "
                   "to %zu",
                   auditName(), static_cast<unsigned long long>(e.tag), i,
                   indexOf(e.tag));
        FDP_ASSERT(e.lastUse <= tick_,
                   "%s: entry %zu last used at tick %llu, after current "
                   "tick %llu",
                   auditName(), i,
                   static_cast<unsigned long long>(e.lastUse),
                   static_cast<unsigned long long>(tick_));
    }
}

void
StridePrefetcher::doObserve(const PrefetchObservation &obs,
                            std::vector<BlockAddr> &out,
                            std::size_t budget)
{
    ++tick_;
    Entry &e = table_[indexOf(obs.pc)];
    const auto addr = static_cast<std::int64_t>(obs.addr);

    if (!e.valid || e.tag != obs.pc) {
        e = Entry{};
        e.valid = true;
        e.tag = obs.pc;
        e.lastAddr = addr;
        e.state = State::Initial;
        e.lastUse = tick_;
        return;
    }

    e.lastUse = tick_;
    const std::int64_t delta = addr - e.lastAddr;
    e.lastAddr = addr;
    const bool correct = delta == e.stride && delta != 0;

    // Baer-Chen 4-state confidence FSM. A Steady-state mispredict keeps
    // the learned stride (the stream may resume after an interruption);
    // every other incorrect transition re-learns the stride.
    switch (e.state) {
      case State::Initial:
        e.state = correct ? State::Steady : State::Transient;
        if (!correct)
            e.stride = delta;
        break;
      case State::Transient:
        e.state = correct ? State::Steady : State::NoPred;
        if (!correct)
            e.stride = delta;
        break;
      case State::Steady:
        if (!correct)
            e.state = State::Initial;
        break;
      case State::NoPred:
        e.state = correct ? State::Transient : State::NoPred;
        if (!correct)
            e.stride = delta;
        break;
    }

    if (e.state != State::Steady || e.stride == 0)
        return;

    // Issue `degree` prefetches ending `distance` strides ahead. The
    // window slides by one stride per access, so every future address in
    // the stream is eventually requested exactly once (modulo dedup).
    const std::int64_t dist = distance();
    const std::int64_t deg = degree();
    BlockAddr last_block = obs.block;
    std::size_t produced = 0;
    for (std::int64_t j = dist - deg + 1; j <= dist; ++j) {
        if (produced >= budget)
            break;
        const std::int64_t pf = addr + e.stride * j;
        if (pf < 0)
            continue;
        const BlockAddr pf_block = blockAddr(static_cast<Addr>(pf));
        if (pf_block == last_block)
            continue;  // sub-block strides: avoid duplicate block requests
        last_block = pf_block;
        out.push_back(pf_block);
        ++produced;
    }
}

} // namespace fdp
