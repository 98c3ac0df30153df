#include "tracer.hh"

#include <algorithm>

namespace perfbench
{

double
ClockCost::correctedSelfNs(const LayerStat &s) const
{
    return std::max(0.0, static_cast<double>(s.selfNs) - chargedNs(s));
}

double
ClockCost::correctedTotalNs(const LayerStat &s) const
{
    return std::max(0.0, static_cast<double>(s.totalNs) -
                             static_cast<double>(s.calls) * innerNs -
                             static_cast<double>(s.childCalls) *
                                 (innerNs + outerNs));
}

double
ClockCost::chargedNs(const LayerStat &s) const
{
    return static_cast<double>(s.calls) * innerNs +
           static_cast<double>(s.childCalls) * outerNs;
}

namespace
{

/** A few ns of dependent arithmetic, so the calibration spans overlap
 *  with surrounding work the way spans in the simulator do. */
[[gnu::noinline]] std::uint64_t
filler(std::uint64_t x)
{
    for (int i = 0; i < 8; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
}

} // namespace

ClockCost
Tracer::calibrate()
{
    // Child spans inside one parent, with the same filler work inside
    // each child and between children; timing the filler alone lets it
    // be taken out. What remains of a child's total is the cost inside
    // a span, of the parent's self time per child the cost outside.
    // The fastest of several trials is the least disturbed one.
    constexpr int kSpans = 100000;
    ClockCost best{1e9, 1e9};
    std::uint64_t x = 1;
    for (int trial = 0; trial < 5; ++trial) {
        const Clock::time_point f0 = Clock::now();
        for (int i = 0; i < kSpans; ++i)
            x = filler(x);
        const double fillerNs =
            std::chrono::duration<double, std::nano>(Clock::now() - f0)
                .count() /
            kSpans;
        Tracer t;
        t.enter(Layer::Harness);
        for (int i = 0; i < kSpans; ++i) {
            x = filler(x);
            t.enter(Layer::Sim);
            x = filler(x);
            t.leave();
        }
        t.leave();
        t.endCell("calibrate");
        const LayerStats &s = t.cells().front().layers;
        const LayerStat &child = s[static_cast<std::size_t>(Layer::Sim)];
        const LayerStat &parent = s[static_cast<std::size_t>(Layer::Harness)];
        best.innerNs = std::min(
            best.innerNs,
            static_cast<double>(child.totalNs) / kSpans - fillerNs);
        best.outerNs = std::min(
            best.outerNs,
            static_cast<double>(parent.selfNs) / kSpans - fillerNs);
    }
    // Keep the filler's result observable so the loops stay.
    if (x == 0)
        best.innerNs += 1e-9;
    return {std::max(0.0, best.innerNs), std::max(0.0, best.outerNs)};
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Workload: return "workload";
      case Layer::Cpu: return "cpu";
      case Layer::Mem: return "mem";
      case Layer::Mc: return "mc";
      case Layer::Prefetch: return "prefetch";
      case Layer::Core: return "core";
      case Layer::Manage: return "manage";
      case Layer::Sim: return "sim";
      case Layer::Harness: return "harness";
      case Layer::Count: break;
    }
    return "?";
}

void
Tracer::endCell(const std::string &cell)
{
    cells_.push_back(CellSpans{cell, current_});
    current_ = LayerStats{};
}

LayerStats
Tracer::totals() const
{
    LayerStats sum{};
    for (const CellSpans &c : cells_)
        for (std::size_t i = 0; i < kLayers; ++i)
            sum[i] += c.layers[i];
    return sum;
}

} // namespace perfbench
