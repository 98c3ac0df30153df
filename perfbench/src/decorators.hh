/**
 * @file
 * Forwarding decorators that time each call into a simulator layer.
 *
 * Each decorator owns nothing: it forwards every virtual of the wrapped
 * interface (including the Auditable and Snapshottable ones the machine
 * reaches through it) to the inner object, and opens a span only around
 * the hot call of its layer. With a null tracer the decorators still
 * count calls but read no clock, so a decorated machine is exactly the
 * undecorated one plus a virtual call per boundary.
 */

#ifndef PERFBENCH_DECORATORS_HH
#define PERFBENCH_DECORATORS_HH

#include <cstdint>
#include <vector>

#include "mem/memory_port.hh"
#include "prefetch/prefetcher.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "tracer.hh"
#include "workload/workload.hh"

namespace perfbench
{

/** Times Workload::next(). */
class TracedWorkload final : public fdp::Workload,
                             public fdp::Auditable,
                             public fdp::Snapshottable
{
  public:
    TracedWorkload(fdp::Workload &inner, Tracer *tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    fdp::MicroOp
    next() override
    {
        ++calls_;
        const Span span(tracer_, Layer::Workload);
        return inner_.next();
    }

    void reset() override { inner_.reset(); }
    const char *name() const override { return inner_.name(); }

    void
    audit() const override
    {
        if (const auto *a = dynamic_cast<const fdp::Auditable *>(&inner_))
            a->audit();
    }

    const char *
    auditName() const override
    {
        const auto *a = dynamic_cast<const fdp::Auditable *>(&inner_);
        return a ? a->auditName() : "traced-workload";
    }

    void
    saveState(fdp::SnapWriter &w) const override
    {
        snappable().saveState(w);
    }

    void
    loadState(fdp::SnapReader &r) override
    {
        snappable().loadState(r);
    }

    const char *
    snapName() const override
    {
        return snappable().snapName();
    }

    std::uint64_t calls() const { return calls_; }

  private:
    fdp::Snapshottable &
    snappable() const
    {
        auto *s = dynamic_cast<fdp::Snapshottable *>(&inner_);
        if (s == nullptr)
            fdp::fatal("workload %s is not snapshottable", inner_.name());
        return *s;
    }

    fdp::Workload &inner_;
    Tracer *tracer_;
    std::uint64_t calls_ = 0;
};

/** Times MemoryPort::demandAccess (single-core or one mc port). */
class TracedPort final : public fdp::MemoryPort
{
  public:
    TracedPort(fdp::MemoryPort &inner, Layer layer, Tracer *tracer)
        : inner_(inner), layer_(layer), tracer_(tracer)
    {
    }

    void
    demandAccess(fdp::Addr addr, fdp::Addr pc, bool isWrite, fdp::Cycle now,
                 fdp::DoneFn done) override
    {
        ++calls_;
        const Span span(tracer_, layer_);
        inner_.demandAccess(addr, pc, isWrite, now, std::move(done));
    }

    std::uint64_t calls() const { return calls_; }

  private:
    fdp::MemoryPort &inner_;
    Layer layer_;
    Tracer *tracer_;
    std::uint64_t calls_ = 0;
};

/** Times Prefetcher::observe and counts the candidates it appends. */
class TracedPrefetcher final : public fdp::Prefetcher
{
  public:
    TracedPrefetcher(fdp::Prefetcher &inner, Tracer *tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void setAggressiveness(unsigned level) override
    {
        inner_.setAggressiveness(level);
    }
    unsigned aggressiveness() const override
    {
        return inner_.aggressiveness();
    }
    const char *name() const override { return inner_.name(); }
    void reset() override { inner_.reset(); }
    void audit() const override { inner_.audit(); }
    void saveState(fdp::SnapWriter &w) const override
    {
        inner_.saveState(w);
    }
    void loadState(fdp::SnapReader &r) override { inner_.loadState(r); }

    std::uint64_t calls() const { return calls_; }
    std::uint64_t candidates() const { return candidates_; }
    std::int64_t ns() const { return ns_; }

  protected:
    void
    doObserve(const fdp::PrefetchObservation &obs,
              std::vector<fdp::BlockAddr> &out, std::size_t budget) override
    {
        const std::size_t before = out.size();
        if (tracer_) {
            tracer_->enter(Layer::Prefetch);
            inner_.observe(obs, out, budget);
            ns_ += tracer_->leave();
        } else {
            inner_.observe(obs, out, budget);
        }
        ++calls_;
        candidates_ += out.size() - before;
    }

  private:
    fdp::Prefetcher &inner_;
    Tracer *tracer_;
    std::uint64_t calls_ = 0;
    std::uint64_t candidates_ = 0;
    std::int64_t ns_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_HH
