#include "cpu/ooo_core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fdp
{

namespace
{
constexpr std::uint64_t kNoPos = ~std::uint64_t{0};
} // namespace

OooCore::OooCore(const CoreParams &params, MemoryPort &mem,
                 EventQueue &events, Workload &workload, StatGroup &stats)
    : params_(params), mem_(mem), events_(events), workload_(workload),
      rob_(params.robSize),
      cycles_(stats, "cycles", "simulated cycles"),
      retired_(stats, "retired", "retired micro-ops"),
      loads_(stats, "loads", "retired loads"),
      stores_(stats, "stores", "retired stores"),
      robFullCycles_(stats, "rob_full_cycles",
                     "cycles dispatch stalled on a full ROB")
{
    if (params_.robSize == 0 || params_.width == 0)
        fatal("core needs nonzero ROB size and width");
    lastLoadPos_ = kNoPos;
}

void
OooCore::issueLoad(unsigned slot, Cycle now)
{
    RobEntry &e = rob_[slot];
    e.issued = true;
    const std::uint64_t seq = e.seq;
    mem_.demandAccess(e.addr, e.pc, false, now,
                      [this, slot, seq](Cycle c) {
                          loadComplete(slot, seq, c);
                      });
}

void
OooCore::loadComplete(unsigned slot, std::uint64_t seq, Cycle when)
{
    RobEntry &e = rob_[slot];
    if (e.seq != seq)
        return;  // the slot was recycled; stale callback
    e.done = true;
    e.doneCycle = when;
    if (e.waiter >= 0) {
        const unsigned w = static_cast<unsigned>(e.waiter);
        e.waiter = -1;
        issueLoad(w, when);
    }
}

void
OooCore::beginRun(std::uint64_t numInsts)
{
    budget_ = numInsts;
    dispatchedCount_ = 0;
    retiredCount_ = 0;
    retiredAcc_ = 0;
    loadsAcc_ = 0;
    storesAcc_ = 0;
    robFullAcc_ = 0;
}

bool
OooCore::step(Cycle now)
{
    // Retire up to `width` completed micro-ops in program order.
    unsigned r = 0;
    while (r < params_.width && head_ != tail_) {
        const RobEntry &h = rob_[headSlot_];
        if (!h.done || h.doneCycle > now)
            break;
        ++head_;
        headSlot_ = nextSlot(headSlot_);
        ++retiredCount_;
        ++r;
    }
    retiredAcc_ += r;

    // Dispatch up to `width` new micro-ops while the ROB has room.
    // Dispatch never exceeds the budget, so the run ends with exactly
    // `budget_` retirements and an empty ROB.
    unsigned d = 0;
    while (d < params_.width && tail_ - head_ < rob_.size() &&
           dispatchedCount_ < budget_) {
        const MicroOp op = workload_.next();
        const std::uint64_t pos = tail_++;
        const unsigned slot = tailSlot_;
        tailSlot_ = nextSlot(tailSlot_);
        // Field by field: a whole-struct `e = RobEntry{}` builds a
        // temporary and copies it back, stalling store forwarding.
        RobEntry &e = rob_[slot];
        e.seq = nextSeq_++;
        e.kind = op.kind;
        e.addr = op.addr;
        e.pc = op.pc;
        e.done = false;
        e.doneCycle = 0;
        e.issued = false;
        e.waiter = -1;

        switch (op.kind) {
          case OpKind::Int:
            e.done = true;
            e.doneCycle = now + 1;
            e.issued = true;
            break;
          case OpKind::Store:
            ++storesAcc_;
            // Stores drain through the store buffer: they access the
            // hierarchy but never block retirement.
            mem_.demandAccess(op.addr, op.pc, true, now, [](Cycle) {});
            e.done = true;
            e.doneCycle = now + 1;
            e.issued = true;
            break;
          case OpKind::Load: {
            ++loadsAcc_;
            bool issue_now = true;
            if (op.depPrevLoad && lastLoadPos_ != kNoPos &&
                lastLoadPos_ >= head_) {
                RobEntry &prod = rob_[lastLoadSlot_];
                if (!prod.done) {
                    prod.waiter = static_cast<int>(slot);
                    issue_now = false;
                }
            }
            if (issue_now)
                issueLoad(slot, now);
            lastLoadPos_ = pos;
            lastLoadSlot_ = slot;
            break;
          }
        }
        ++d;
        ++dispatchedCount_;
    }

    return r + d > 0;
}

Cycle
OooCore::wakeCycle() const
{
    if (head_ == tail_)
        return kNoCycle;
    const RobEntry &h = rob_[headSlot_];
    return h.done ? h.doneCycle : kNoCycle;
}

void
OooCore::noteDeadTime(Cycle cycles)
{
    if (robFull())
        robFullAcc_ += cycles;
}

void
OooCore::closeRun(Cycle start, Cycle end)
{
    cycles_ += (end - start) + 1;
    // Publish the per-op counters batched across the run.
    retired_ += retiredAcc_;
    loads_ += loadsAcc_;
    stores_ += storesAcc_;
    robFullCycles_ += robFullAcc_;
    retiredAcc_ = 0;
    loadsAcc_ = 0;
    storesAcc_ = 0;
    robFullAcc_ = 0;
}

void
OooCore::run(std::uint64_t numInsts)
{
    runLockstep(events_, {this}, numInsts);
}

void
runLockstep(EventQueue &events, std::vector<OooCore *> cores,
            std::uint64_t numInsts)
{
    for (OooCore *c : cores)
        c->beginRun(numInsts);
    const Cycle start = events.horizon();
    Cycle cyc = start;

    for (;;) {
        events.serviceUntil(cyc);
        bool progressed = false;
        for (auto it = cores.begin(); it != cores.end();) {
            OooCore &c = **it;
            progressed = c.step(cyc) || progressed;
            if (c.runDone()) {
                c.closeRun(start, cyc);
                it = cores.erase(it);
            } else {
                ++it;
            }
        }
        if (cores.empty())
            return;

        // Advance the clock, skipping dead time when fully stalled. A
        // live core that made no progress holds micro-ops in its ROB, so
        // with no event pending and no head to wake it can never finish.
        Cycle nxt = cyc + 1;
        if (!progressed) {
            Cycle target = events.nextEventCycle();
            for (const OooCore *c : cores)
                target = std::min(target, c->wakeCycle());
            if (target == kNoCycle)
                panic("core deadlock: stalled with no pending events");
            if (target > cyc)
                nxt = target;
            for (OooCore *c : cores)
                c->noteDeadTime(nxt - cyc);
        }
        cyc = nxt;
    }
}

template <typename Self, typename Io>
void
OooCore::snapFields(Self &self, Io &io)
{
    FDP_ASSERT(self.robEmpty(),
               "core: %llu micro-ops in the ROB at a snapshot",
               static_cast<unsigned long long>(self.tail_ - self.head_));
    io.begin(self.snapName());
    io.fixedU32(self.rob_.size(), "ROB holds");
    io.u64(self.head_);
    io.u64(self.tail_);
    io.u64(self.nextSeq_);
    io.u64(self.lastLoadPos_);
    io.check(self.head_ == self.tail_, "holds a non-empty ROB");
    io.end();
}

void
OooCore::saveState(SnapWriter &w) const
{
    SnapSave io(w);
    snapFields(*this, io);
}

void
OooCore::loadState(SnapReader &r)
{
    SnapLoad io(r);
    snapFields(*this, io);
    headSlot_ = slotOf(head_);
    tailSlot_ = slotOf(tail_);
    lastLoadSlot_ = lastLoadPos_ == kNoPos ? 0 : slotOf(lastLoadPos_);
}

double
OooCore::ipc() const
{
    return ratio(static_cast<double>(retired()),
                 static_cast<double>(cycles_.value()));
}

} // namespace fdp
