/**
 * @file
 * In-memory span tracer for the benchmark's traced runs.
 *
 * Spans are opened around calls into each simulator layer by the
 * forwarding decorators (decorators.hh) and by the benchmark's own
 * drive loop. Per-call records would not fit (a traced paper sweep makes
 * ~10^8 calls), so every span is folded into a per-(cell, layer)
 * aggregate as it closes: call count, total duration, and self duration
 * (the duration minus the time covered by child spans). The tracer is
 * single-threaded; traced passes run every cell on one thread.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Simulator layers, named after the src/ modules they time. */
enum class Layer : std::uint8_t
{
    Workload,  ///< Workload::next (generator or trace decode)
    Cpu,       ///< OooCore::step
    Mem,       ///< single-core MemorySystem::demandAccess
    Mc,        ///< McMemorySystem per-core port access
    Prefetch,  ///< Prefetcher::observe
    Core,      ///< FDP end-of-interval hook
    Manage,    ///< ManagedPrefetcher::intervalTick
    Sim,       ///< EventQueue::serviceUntil
    Harness,   ///< warm-image capture and fork restore
    Count,
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

/** Module name of @p layer ("workload", "cpu", ...). */
const char *layerName(Layer layer);

/** One layer's aggregate over a cell (or a whole pass). */
struct LayerStat
{
    std::uint64_t calls = 0;
    /** Spans opened directly inside this layer's spans. */
    std::uint64_t childCalls = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;

    LayerStat &
    operator+=(const LayerStat &o)
    {
        calls += o.calls;
        childCalls += o.childCalls;
        totalNs += o.totalNs;
        selfNs += o.selfNs;
        return *this;
    }
};

using LayerStats = std::array<LayerStat, kLayers>;

/**
 * Host cost of the tracing itself, per span: `innerNs` lands inside the
 * span's own measured interval, `outerNs` in whatever encloses it (the
 * parent span, or untraced time for a root span). Measured once by
 * calibrate() on empty spans.
 */
struct ClockCost
{
    double innerNs = 0.0;
    double outerNs = 0.0;

    /** @p s's self time with the tracing cost taken out (>= 0). */
    double correctedSelfNs(const LayerStat &s) const;

    /** @p s's total time with the tracing cost of its own and its
     *  direct children's spans taken out (>= 0). */
    double correctedTotalNs(const LayerStat &s) const;

    /** Tracing cost charged inside @p s's spans. */
    double chargedNs(const LayerStat &s) const;
};

/** The aggregates of one finished cell. */
struct CellSpans
{
    std::string cell;
    LayerStats layers{};
};

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    void
    enter(Layer layer)
    {
        stack_.push_back(Frame{layer, 0, 0, Clock::now()});
    }

    /** Close the innermost span; returns its duration in ns. */
    std::int64_t
    leave()
    {
        const Clock::time_point end = Clock::now();
        const Frame f = stack_.back();
        stack_.pop_back();
        const std::int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                 f.start)
                .count();
        LayerStat &s = current_[static_cast<std::size_t>(f.layer)];
        ++s.calls;
        s.totalNs += ns;
        s.selfNs += ns - f.childNs;
        s.childCalls += f.childCalls;
        if (!stack_.empty()) {
            stack_.back().childNs += ns;
            ++stack_.back().childCalls;
        } else {
            ++rootCalls_;
        }
        return ns;
    }

    /** File the spans recorded since the last call under @p cell. */
    void endCell(const std::string &cell);

    const std::vector<CellSpans> &cells() const { return cells_; }

    /** Sum of every filed cell's aggregates. */
    LayerStats totals() const;

    /** Spans opened outside any other span. */
    std::uint64_t rootCalls() const { return rootCalls_; }

    /** Measure the per-span tracing cost on this host. */
    static ClockCost calibrate();

  private:
    struct Frame
    {
        Layer layer;
        std::uint64_t childCalls;
        std::int64_t childNs;
        Clock::time_point start;
    };

    std::vector<Frame> stack_;
    std::uint64_t rootCalls_ = 0;
    LayerStats current_{};
    std::vector<CellSpans> cells_;
};

/** RAII span; a null tracer makes it free of any clock read. */
class Span
{
  public:
    Span(Tracer *tracer, Layer layer) : tracer_(tracer)
    {
        if (tracer_)
            tracer_->enter(layer);
    }
    ~Span()
    {
        if (tracer_)
            tracer_->leave();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
