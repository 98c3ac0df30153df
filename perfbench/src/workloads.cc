#include "workloads.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <random>

#include "harness/sweep_pool.hh"
#include "harness/warm_fork.hh"
#include "mc/workload_mix.hh"
#include "sim/logging.hh"
#include "trace/trace_workload.hh"
#include "workload/spec_suite.hh"

namespace perfbench
{

using namespace fdp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Seeded Fisher-Yates permutation of 0..n-1 (portable across
 *  standard libraries, unlike std::shuffle). */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng() % i]);
    return p;
}

double
gmean(const std::vector<double> &v)
{
    double logSum = 0.0;
    for (const double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

double
amean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (const double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

std::uint64_t
bytesHash(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

std::string
signedPct(double v, const char *unit = "%")
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%+.2f%s", v, unit);
    return buf;
}

/** The paper's two headline FDP claims against Very Aggressive on the
 *  17 memory-intensive benchmarks (Section 6.1, Table 5). */
constexpr double kPaperIpcGainPct = 6.5;
constexpr double kPaperBpkiSavingPct = 18.7;

// --------------------------------------------------------------------
// paper-sweep
// --------------------------------------------------------------------

class PaperSweep final : public BenchWorkload
{
  public:
    explicit PaperSweep(const WorkloadOptions &o) : o_(o)
    {
        benches_ = allBenchmarks();
        const std::uint64_t insts = 1'000'000 / o.scaleDown;
        const std::uint64_t warmup = 250'000 / o.scaleDown;
        configs_ = {{"none", RunConfig::noPrefetching()},
                    {"va", RunConfig::staticLevelConfig(kMaxAggrLevel)},
                    {"fdp", RunConfig::fullFdp()}};
        for (LabeledConfig &c : configs_) {
            c.second.numInsts = insts;
            c.second.warmupInsts = warmup;
        }
        // The seed picks the cells whose warm fork is re-run cold. It
        // leaves the sweep order alone: that order sets the pool's load
        // balance, and so the wall-clock time.
        const std::vector<std::size_t> cells =
            permutation(benches_.size() * configs_.size(), o.seed + 1);
        sampled_.assign(cells.begin(), cells.begin() + kSampledCells);
    }

    std::uint64_t
    rep(CheckTally &tally) override
    {
        const auto results = runSweep(benches_, configs_, o_.jobs);
        if (first_.empty())
            first_ = results;
        std::uint64_t ops = 0;
        for (std::size_t c = 0; c < configs_.size(); ++c)
            for (std::size_t b = 0; b < benches_.size(); ++b) {
                ops += results[c][b].insts;
                tally.check(cellName(c, b),
                            sameResult(results[c][b], first_[c][b]),
                            "differs from the first repetition");
                tally.check(cellName(c, b),
                            results[c][b].insts ==
                                configs_[c].second.numInsts,
                            "retired the wrong micro-op count");
            }
        return ops;
    }

    void
    check(CheckTally &tally) override
    {
        for (const std::size_t cell : sampled_) {
            const std::size_t c = cell / benches_.size();
            const std::size_t b = cell % benches_.size();
            const RunResult cold = runBenchmark(
                benches_[b], configs_[c].second, configs_[c].first);
            tally.check(cellName(c, b), sameResult(cold, first_[c][b]),
                        "cold warm-up differs from the warm fork");
        }
    }

    std::vector<Metric>
    simulatedMetrics() const override
    {
        const auto &none = first_[0];
        const auto &va = first_[1];
        const auto &fdp = first_[2];
        std::vector<double> ipc, bpki;
        double ws = 0.0;
        for (std::size_t b = 0; b < benches_.size(); ++b) {
            ipc.push_back(fdp[b].ipc);
            bpki.push_back(fdp[b].bpki);
            ws += fdp[b].ipc / none[b].ipc;
        }
        std::vector<double> fdpIpc, vaIpc, fdpBpki, vaBpki;
        for (const std::string &name : memoryIntensiveBenchmarks()) {
            const std::size_t b = indexOf(name);
            fdpIpc.push_back(fdp[b].ipc);
            vaIpc.push_back(va[b].ipc);
            fdpBpki.push_back(fdp[b].bpki);
            vaBpki.push_back(va[b].bpki);
        }
        return {
            {"ipc_gmean", "IPC", gmean(ipc)},
            {"bpki_amean", "BPKI", amean(bpki)},
            {"ipc_gain_vs_va", "%", (gmean(fdpIpc) / gmean(vaIpc) - 1) * 100},
            {"bpki_saving_vs_va", "%",
             (1 - amean(fdpBpki) / amean(vaBpki)) * 100},
            {"weighted_speedup", "ratio", ws},
        };
    }

    std::vector<std::string>
    referenceLines() const override
    {
        const std::vector<Metric> m = simulatedMetrics();
        const double gain = m[2].value;
        const double saving = m[3].value;
        return {
            "ipc_gain_vs_va    " + signedPct(gain) + "  paper " +
                signedPct(kPaperIpcGainPct) + "  model error " +
                signedPct(gain - kPaperIpcGainPct, " points"),
            "bpki_saving_vs_va " + signedPct(saving) + "  paper " +
                signedPct(kPaperBpkiSavingPct) + "  model error " +
                signedPct(saving - kPaperBpkiSavingPct, " points"),
            "(FDP vs. Very Aggressive, 17 memory-intensive benchmarks; no "
            "other metric is validated against a reference)",
        };
    }

    TracedPair
    tracedPair(Tracer &tracer, SimCounters &counters,
               CheckTally &tally) override
    {
        TracedPair p;
        const RunConfig &warmCfg = configs_.back().second;
        std::vector<std::vector<RunResult>> untraced(
            configs_.size(), std::vector<RunResult>(benches_.size()));
        std::vector<std::uint64_t> imageHash(benches_.size());
        const Clock::time_point u0 = Clock::now();
        for (std::size_t b = 0; b < benches_.size(); ++b) {
            const Clock::time_point c0 = Clock::now();
            const SnapshotImage image =
                captureWarmSnapshot(benches_[b], warmCfg);
            p.warmCaptureS += secondsSince(c0);
            p.imageBytes += static_cast<double>(image.body.size());
            imageHash[b] = bytesHash(image.body);
            for (std::size_t c = 0; c < configs_.size(); ++c) {
                const Clock::time_point r0 = Clock::now();
                untraced[c][b] = runBenchmarkFromSnapshot(
                    image, configs_[c].second, configs_[c].first);
                p.forkRunS += secondsSince(r0);
            }
        }
        p.untracedS = secondsSince(u0);

        std::vector<std::vector<RunResult>> traced = untraced;
        std::vector<std::uint64_t> tracedImageHash(benches_.size());
        const Clock::time_point t0 = Clock::now();
        for (std::size_t b = 0; b < benches_.size(); ++b) {
            const SnapshotImage image = captureTracedWarmSnapshot(
                benches_[b], warmCfg, &tracer, counters);
            tracedImageHash[b] = bytesHash(image.body);
            for (std::size_t c = 0; c < configs_.size(); ++c) {
                SyntheticWorkload workload(benchmarkParams(benches_[b]));
                traced[c][b] = runTracedCell(workload, configs_[c].second,
                                             configs_[c].first, &image,
                                             &tracer, counters);
            }
        }
        p.tracedS = secondsSince(t0);
        for (std::size_t b = 0; b < benches_.size(); ++b)
            for (std::size_t c = 0; c < configs_.size(); ++c) {
                tally.check(cellName(c, b), tracedImageHash[b] == imageHash[b],
                            "traced warm image differs from the untraced");
                tally.check(cellName(c, b),
                            sameResult(traced[c][b], untraced[c][b]),
                            "traced cell differs from the untraced cell");
            }
        return p;
    }

  private:
    static constexpr std::size_t kSampledCells = 6;

    std::string
    cellName(std::size_t c, std::size_t b) const
    {
        return benches_[b] + "/" + configs_[c].first;
    }

    std::size_t
    indexOf(const std::string &name) const
    {
        for (std::size_t b = 0; b < benches_.size(); ++b)
            if (benches_[b] == name)
                return b;
        panic("benchmark %s not in the sweep", name.c_str());
    }

    WorkloadOptions o_;
    std::vector<std::string> benches_;
    std::vector<LabeledConfig> configs_;
    std::vector<std::size_t> sampled_;
    std::vector<std::vector<RunResult>> first_;
};

// --------------------------------------------------------------------
// zoo-replay
// --------------------------------------------------------------------

class ZooReplay final : public BenchWorkload
{
  public:
    explicit ZooReplay(const WorkloadOptions &o) : o_(o)
    {
        const std::uint64_t insts = 1'000'000 / o.scaleDown;
        record_ = applyPrefetcherSelection(RunConfig::fullFdp(), "ghb");
        record_.numInsts = insts;
        for (const char *name : {"ghb", "stride", "vldp", "dspatch",
                                 "manager"}) {
            RunConfig c = applyPrefetcherSelection(RunConfig::fullFdp(), name);
            c.numInsts = insts;
            configs_.push_back({std::string(name) + "-fdp", c});
        }
        // The bases of the FDP gain and of weighted speedup; run live,
        // outside the timed phase.
        RunConfig va = applyPrefetcherSelection(
            RunConfig::staticLevelConfig(kMaxAggrLevel), "ghb");
        va.numInsts = insts;
        bases_.push_back({"ghb-va", va});
        RunConfig none = RunConfig::noPrefetching();
        none.numInsts = insts;
        bases_.push_back({"none", none});
        order_ = permutation(programs_.size() * configs_.size(), o.seed);
    }

    void
    setup() override
    {
        for (std::size_t t = 0; t < programs_.size(); ++t)
            recordBenchmark(programs_[t], record_, "record", tracePath(t));
    }

    std::uint64_t
    rep(CheckTally &tally) override
    {
        std::vector<RunResult> results(order_.size());
        std::uint64_t ops = 0;
        for (const std::size_t cell : order_) {
            const std::size_t t = cell / configs_.size();
            const std::size_t c = cell % configs_.size();
            results[cell] = replayTrace(tracePath(t), configs_[c].second,
                                        configs_[c].first);
            ops += results[cell].insts;
        }
        if (first_.empty())
            first_ = results;
        for (std::size_t cell = 0; cell < results.size(); ++cell)
            tally.check(name(cell), sameResult(results[cell], first_[cell]),
                        "differs from the first repetition");
        return ops;
    }

    void
    check(CheckTally &tally) override
    {
        for (std::size_t cell = 0; cell < first_.size(); ++cell) {
            const std::size_t t = cell / configs_.size();
            const std::size_t c = cell % configs_.size();
            const RunResult live = runBenchmark(
                programs_[t], configs_[c].second, configs_[c].first);
            tally.check(name(cell), sameResult(live, first_[cell]),
                        "replay differs from the live run");
        }
        baseResults_.clear();
        for (std::size_t t = 0; t < programs_.size(); ++t)
            for (const LabeledConfig &b : bases_)
                baseResults_.push_back(
                    runBenchmark(programs_[t], b.second, b.first));
    }

    std::vector<Metric>
    simulatedMetrics() const override
    {
        std::vector<double> ipc, bpki, ghbIpc, vaIpc, ghbBpki, vaBpki;
        double ws = 0.0;
        for (std::size_t t = 0; t < programs_.size(); ++t) {
            for (std::size_t c = 0; c < configs_.size(); ++c) {
                ipc.push_back(at(c, t).ipc);
                bpki.push_back(at(c, t).bpki);
            }
            ghbIpc.push_back(at(kGhbFdp, t).ipc);
            ghbBpki.push_back(at(kGhbFdp, t).bpki);
            vaIpc.push_back(base(kGhbVa, t).ipc);
            vaBpki.push_back(base(kGhbVa, t).bpki);
            ws += at(kManager, t).ipc / base(kNone, t).ipc;
        }
        return {
            {"ipc_gmean", "IPC", gmean(ipc)},
            {"bpki_amean", "BPKI", amean(bpki)},
            {"ipc_gain_vs_va", "%", (gmean(ghbIpc) / gmean(vaIpc) - 1) * 100},
            {"bpki_saving_vs_va", "%",
             (1 - amean(ghbBpki) / amean(vaBpki)) * 100},
            {"weighted_speedup", "ratio", ws},
        };
    }

    TracedPair
    tracedPair(Tracer &tracer, SimCounters &counters,
               CheckTally &tally) override
    {
        TracedPair p;
        std::vector<RunResult> untraced(order_.size());
        const Clock::time_point u0 = Clock::now();
        for (const std::size_t cell : order_) {
            const std::size_t t = cell / configs_.size();
            const std::size_t c = cell % configs_.size();
            untraced[cell] = replayTrace(tracePath(t), configs_[c].second,
                                         configs_[c].first);
        }
        p.untracedS = secondsSince(u0);

        std::vector<RunResult> traced(order_.size());
        const Clock::time_point t0 = Clock::now();
        for (const std::size_t cell : order_) {
            const std::size_t t = cell / configs_.size();
            const std::size_t c = cell % configs_.size();
            TraceWorkload workload(tracePath(t));
            traced[cell] =
                runTracedCell(workload, configs_[c].second,
                              configs_[c].first, nullptr, &tracer, counters);
        }
        p.tracedS = secondsSince(t0);
        for (std::size_t cell = 0; cell < traced.size(); ++cell)
            tally.check(name(cell), sameResult(traced[cell], untraced[cell]),
                        "traced cell differs from the untraced cell");
        return p;
    }

  private:
    // Column indices into configs_ and bases_.
    static constexpr std::size_t kGhbFdp = 0;
    static constexpr std::size_t kManager = 4;
    static constexpr std::size_t kGhbVa = 0;
    static constexpr std::size_t kNone = 1;

    std::string
    tracePath(std::size_t t) const
    {
        return o_.workDir + "/" + programs_[t] + ".fdptrace";
    }

    std::string
    cellName(std::size_t c, std::size_t t) const
    {
        return programs_[t] + "/" + configs_[c].first;
    }

    std::string
    name(std::size_t cell) const
    {
        return cellName(cell % configs_.size(), cell / configs_.size());
    }

    const RunResult &
    at(std::size_t c, std::size_t t) const
    {
        return first_[t * configs_.size() + c];
    }

    const RunResult &
    base(std::size_t c, std::size_t t) const
    {
        return baseResults_[t * bases_.size() + c];
    }

    WorkloadOptions o_;
    const std::vector<std::string> programs_ = {"mcf", "art", "deltamix",
                                                "phaseflip"};
    RunConfig record_;
    std::vector<LabeledConfig> configs_;
    std::vector<LabeledConfig> bases_;
    std::vector<std::size_t> order_;
    std::vector<RunResult> first_;
    std::vector<RunResult> baseResults_;
};

// --------------------------------------------------------------------
// mix8-ctrl
// --------------------------------------------------------------------

class Mix8Ctrl final : public BenchWorkload
{
  public:
    explicit Mix8Ctrl(const WorkloadOptions &o)
        : o_(o), spec_(mixByName("mix8-mixed"))
    {
        const std::uint64_t insts = 500'000 / o.scaleDown;
        const auto config = [&](const RunConfig &base) {
            McRunConfig c;
            c.base = base;
            c.base.numInsts = insts;
            c.base.machine.dramCtrl.kind = DramKind::Controller;
            c.base.machine.dramCtrl.fdpPriority = true;
            c.numCores = spec_.numCores();
            return c;
        };
        configs_ = {{"fdp", config(RunConfig::fullFdp())}};
        // The base of the FDP gain; co-run outside the timed phase.
        va_ = config(RunConfig::staticLevelConfig(kMaxAggrLevel));
    }

    std::uint64_t
    rep(CheckTally &tally) override
    {
        const auto results = runMixSweep(spec_, configs_, o_.jobs);
        if (first_.empty())
            first_ = results;
        std::uint64_t ops = 0;
        for (std::size_t c = 0; c < results.size(); ++c) {
            tally.check(cellName(c), sameResult(results[c], first_[c]),
                        "differs from the first repetition");
            // The co-run plus one alone baseline per core.
            for (const McCoreResult &core : results[c].cores)
                ops += 2 * core.insts;
        }
        return ops;
    }

    void
    check(CheckTally &tally) override
    {
        const auto serial = runMixSweep(spec_, configs_, 1);
        for (std::size_t c = 0; c < configs_.size(); ++c)
            tally.check(cellName(c), sameResult(serial[c], first_[c]),
                        "1 worker differs from N workers");
        vaResult_ = runMix(spec_, va_, "va");
    }

    std::vector<Metric>
    simulatedMetrics() const override
    {
        std::vector<double> ipc[2], bpki[2];
        for (std::size_t c = 0; c < 2; ++c)
            for (const McCoreResult &core :
                 (c == 0 ? first_[0] : vaResult_).cores) {
                ipc[c].push_back(core.ipc);
                bpki[c].push_back(core.bpki);
            }
        return {
            {"ipc_gmean", "IPC", gmean(ipc[0])},
            {"bpki_amean", "BPKI", amean(bpki[0])},
            {"ipc_gain_vs_va", "%", (gmean(ipc[0]) / gmean(ipc[1]) - 1) * 100},
            {"bpki_saving_vs_va", "%",
             (1 - amean(bpki[0]) / amean(bpki[1])) * 100},
            {"weighted_speedup", "ratio", first_[0].weightedSpeedup},
        };
    }

    TracedPair
    tracedPair(Tracer &tracer, SimCounters &counters,
               CheckTally &tally) override
    {
        TracedPair p;
        const Clock::time_point u0 = Clock::now();
        const auto untraced = runMixSweep(spec_, configs_, 1);
        p.untracedS = secondsSince(u0);
        const Clock::time_point t0 = Clock::now();
        const auto traced =
            runTracedMixSweep(spec_, configs_, &tracer, counters);
        p.tracedS = secondsSince(t0);
        for (std::size_t c = 0; c < configs_.size(); ++c)
            tally.check(cellName(c), sameResult(traced[c], untraced[c]),
                        "traced co-run differs from the untraced co-run");
        return p;
    }

  private:
    std::string
    cellName(std::size_t c) const
    {
        return spec_.name + "/" + configs_[c].label;
    }

    WorkloadOptions o_;
    const MixSpec &spec_;
    std::vector<McLabeledConfig> configs_;
    McRunConfig va_;
    std::vector<McRunResult> first_;
    McRunResult vaResult_;
};

} // namespace

void
CheckTally::check(const std::string &cell, bool ok, const std::string &what)
{
    auto it = cells_.emplace(cell, true).first;
    if (!ok) {
        if (it->second)
            std::cerr << "perfbench: cell " << cell << " failed: " << what
                      << '\n';
        it->second = false;
    }
}

std::uint64_t
CheckTally::failed() const
{
    std::uint64_t n = 0;
    for (const auto &[cell, ok] : cells_)
        n += ok ? 0 : 1;
    return n;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"paper-sweep",
                                                   "zoo-replay", "mix8-ctrl"};
    return names;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, const WorkloadOptions &options)
{
    if (name == "paper-sweep")
        return std::make_unique<PaperSweep>(options);
    if (name == "zoo-replay")
        return std::make_unique<ZooReplay>(options);
    if (name == "mix8-ctrl")
        return std::make_unique<Mix8Ctrl>(options);
    fatal("unknown workload `%s' (known: paper-sweep zoo-replay mix8-ctrl)",
          name.c_str());
}

} // namespace perfbench
