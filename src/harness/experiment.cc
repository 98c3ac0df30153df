#include "harness/experiment.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "prefetch/dspatch_prefetcher.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/nextline_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"
#include "prefetch/stride_prefetcher.hh"
#include "prefetch/vldp_prefetcher.hh"
#include "sim/check.hh"
#include "sim/logging.hh"
#include "trace/trace_workload.hh"
#include "workload/spec_suite.hh"

namespace fdp
{

RunConfig
RunConfig::noPrefetching()
{
    RunConfig c;
    c.prefetcher = PrefetcherKind::None;
    c.fdp.dynamicAggressiveness = false;
    c.fdp.dynamicInsertion = false;
    return c;
}

RunConfig
RunConfig::staticLevelConfig(unsigned level, InsertPos ins)
{
    RunConfig c;
    c.staticLevel = level;
    c.fdp.dynamicAggressiveness = false;
    c.fdp.dynamicInsertion = false;
    c.fdp.staticInsertPos = ins;
    return c;
}

RunConfig
RunConfig::dynamicAggressiveness()
{
    RunConfig c;
    c.fdp.dynamicAggressiveness = true;
    c.fdp.dynamicInsertion = false;
    c.fdp.staticInsertPos = InsertPos::Mru;
    return c;
}

RunConfig
RunConfig::dynamicInsertion(unsigned staticLevel)
{
    RunConfig c;
    c.staticLevel = staticLevel;
    c.fdp.dynamicAggressiveness = false;
    c.fdp.dynamicInsertion = true;
    return c;
}

RunConfig
RunConfig::fullFdp()
{
    RunConfig c;
    c.fdp.dynamicAggressiveness = true;
    c.fdp.dynamicInsertion = true;
    return c;
}

RunConfig
RunConfig::accuracyOnlyFdp()
{
    RunConfig c = fullFdp();
    c.fdp.accuracyOnly = true;
    return c;
}

namespace
{

/** Build a @p P at @p level through its @p Params. */
template <typename P, typename Params>
std::unique_ptr<Prefetcher>
build(unsigned level)
{
    Params p;
    p.initialLevel = level;
    return std::make_unique<P>(p);
}

/** One prefetcher selection: its name and what it selects. */
struct PrefetcherRow
{
    const char *name;
    PrefetcherSelection selection;
    /** nullptr for `none', and for the manager, which
     *  makeRunPrefetcher assembles over its zoo. */
    std::unique_ptr<Prefetcher> (*make)(unsigned level);
};

/**
 * Every selection, in display order. The kinds' values feed the store
 * key and the names feed --list-prefetchers, so neither may change; a
 * new prefetcher is its class plus one row.
 */
constexpr PrefetcherRow kPrefetchers[] = {
    {"none", {PrefetcherKind::None}, nullptr},
    {"stream", {PrefetcherKind::Stream},
     build<StreamPrefetcher, StreamPrefetcherParams>},
    {"ghb", {PrefetcherKind::GhbCdc},
     build<GhbPrefetcher, GhbPrefetcherParams>},
    {"stride", {PrefetcherKind::Stride},
     build<StridePrefetcher, StridePrefetcherParams>},
    {"vldp", {PrefetcherKind::Vldp},
     build<VldpPrefetcher, VldpPrefetcherParams>},
    {"dspatch", {PrefetcherKind::Dspatch},
     build<DspatchPrefetcher, DspatchPrefetcherParams>},
    {"nextline", {PrefetcherKind::NextLine},
     build<NextLinePrefetcher, NextLinePrefetcherParams>},
    {"manager", {PrefetcherKind::Stream, ManagerKind::Explore}, nullptr},
};

/** The row that selects @p kind without the manager. */
const PrefetcherRow &
rowOf(PrefetcherKind kind)
{
    for (const PrefetcherRow &row : kPrefetchers)
        if (row.selection.kind == kind &&
            row.selection.manager == ManagerKind::Off)
            return row;
    panic("unknown prefetcher kind");
}

} // namespace

std::unique_ptr<Prefetcher>
makePrefetcher(PrefetcherKind kind, unsigned level)
{
    const PrefetcherRow &row = rowOf(kind);
    return row.make ? row.make(level) : nullptr;
}

const char *
prefetcherKindName(PrefetcherKind kind)
{
    return rowOf(kind).name;
}

const std::vector<std::string> &
knownPrefetcherNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const PrefetcherRow &row : kPrefetchers)
            v.emplace_back(row.name);
        return v;
    }();
    return names;
}

PrefetcherSelection
prefetcherSelectionFromName(const std::string &name)
{
    for (const PrefetcherRow &row : kPrefetchers)
        if (name == row.name)
            return row.selection;
    std::string known;
    for (const auto &n : knownPrefetcherNames())
        known += (known.empty() ? "" : " ") + n;
    fatal("unknown prefetcher `%s' (known: %s)", name.c_str(),
          known.c_str());
}

RunConfig
applyPrefetcherSelection(const RunConfig &base, const std::string &name)
{
    const PrefetcherSelection sel = prefetcherSelectionFromName(name);
    RunConfig c = base;
    c.prefetcher = sel.kind;
    c.manager = sel.manager;
    return c;
}

std::vector<PrefetcherKind>
defaultManagerZoo()
{
    return {PrefetcherKind::Stream, PrefetcherKind::Stride,
            PrefetcherKind::Vldp, PrefetcherKind::Dspatch,
            PrefetcherKind::NextLine};
}

FdpParams
resolvedFdpParams(const RunConfig &config)
{
    FdpParams fp = config.fdp;
    if (!fp.dynamicAggressiveness)
        fp.initialLevel = config.staticLevel;
    return fp;
}

namespace
{

/** The prefetcher's construction-time aggressiveness level. */
unsigned
startLevel(const RunConfig &config)
{
    return config.fdp.dynamicAggressiveness ? config.fdp.initialLevel
                                            : config.staticLevel;
}

} // namespace

std::unique_ptr<Prefetcher>
makeRunPrefetcher(const RunConfig &config)
{
    const unsigned level = startLevel(config);
    if (config.manager == ManagerKind::Off)
        return makePrefetcher(config.prefetcher, level);
    const std::vector<PrefetcherKind> kinds =
        config.managerZoo.empty() ? defaultManagerZoo() : config.managerZoo;
    std::vector<std::unique_ptr<Prefetcher>> zoo;
    zoo.reserve(kinds.size());
    for (const PrefetcherKind kind : kinds) {
        if (kind == PrefetcherKind::None)
            fatal("manager zoo cannot contain `none'");
        zoo.push_back(makePrefetcher(kind, level));
    }
    ManagerParams mp = config.managerParams;
    mp.initialLevel = level;
    return std::make_unique<ManagedPrefetcher>(mp, std::move(zoo));
}

namespace
{

/** The address of every element of @p items. */
template <typename T>
std::vector<T *>
addressesOf(std::deque<T> &items)
{
    std::vector<T *> out;
    for (T &item : items)
        out.push_back(&item);
    return out;
}

} // namespace

SimMachine::SimMachine(Workload &workload, const RunConfig &config)
    : SimMachine(config, {&workload}, {}, false)
{
}

SimMachine::SimMachine(const RunConfig &config,
                       const std::vector<Workload *> &workloads,
                       const std::vector<std::string> &corePrefetchers)
    : SimMachine(config, workloads, corePrefetchers, true)
{
}

SimMachine::SimMachine(const RunConfig &config,
                       const std::vector<Workload *> &programs,
                       const std::vector<std::string> &corePrefetchers,
                       bool perCore)
    : perCoreStats(perCore),
      stats([&] {
          std::deque<StatGroup> groups;
          if (!perCore) {
              groups.emplace_back("fdp");
              groups.emplace_back("core");
          }
          for (std::size_t i = 0; perCore && i < programs.size(); ++i)
              groups.emplace_back("c" + std::to_string(i));
          return groups;
      }()),
      controllers([&] {
          std::deque<FdpController> ctrls;
          for (std::size_t i = 0; i < programs.size(); ++i) {
              FdpParams fp = resolvedFdpParams(config);
              if (perCore)
                  fp.label = "fdp_controller.c" + std::to_string(i);
              ctrls.emplace_back(fp, nullptr, fdpStats(CoreId(i)));
          }
          return ctrls;
      }()),
      mem(config.machine, events,
          std::vector<Prefetcher *>(programs.size(), nullptr),
          addressesOf(controllers), memStats,
          perCore ? addressesOf(stats) : std::vector<StatGroup *>{}),
      workloads(programs),
      periodicAudit(debugBuild() || auditRequestedByEnv())
{
    const unsigned n = static_cast<unsigned>(workloads.size());
    if (!corePrefetchers.empty() && corePrefetchers.size() != n)
        fatal("co-run of %u cores got %zu per-core prefetcher selections",
              n, corePrefetchers.size());
    audits.add(&events);
    audits.add(&mem);
    const bool traceManager = std::getenv("FDP_MANAGER_TRACE") != nullptr;
    for (unsigned i = 0; i < n; ++i) {
        const CoreId c(i);
        prefetchers.push_back(makeRunPrefetcher(
            corePrefetchers.empty()
                ? config
                : applyPrefetcherSelection(config, corePrefetchers[i])));
        cores.emplace_back(config.core, mem.port(c), events, *workloads[i],
                           stats[perCore ? i : 1]);
        // Warm-up runs prefetcher-free; measurementBoundary attaches.
        if (config.warmupInsts == 0) {
            fdp(c).setPrefetcher(prefetcher(c));
            mem.setPrefetcher(prefetcher(c), c);
        }
        audits.add(&fdp(c));
        if (prefetcher(c))
            audits.add(prefetcher(c));
        // Auditable frontends (e.g. TraceWorkload) join the same pass.
        if (const auto *aw = dynamic_cast<const Auditable *>(workloads[i]))
            audits.add(aw);

        // A manager consumes its core's closed interval after the FDP
        // controller has applied its own throttling, so both share one
        // boundary; the last core's hook then makes the stat groups
        // exact at each paper checkpoint and audits there.
        auto *manager = dynamic_cast<ManagedPrefetcher *>(prefetcher(c));
        const bool last = i + 1 == n;
        if (manager == nullptr && !last)
            continue;
        fdp(c).setEndOfIntervalHook([this, c, manager, last,
                                     traceManager] {
            if (manager != nullptr) {
                const FeedbackCounters &fc = fdp(c).counters();
                manager->intervalTick({fc.accuracy(), fc.lateness(),
                                       fc.pollution(), core(c).retired(),
                                       events.horizon()});
                if (traceManager)
                    std::cerr << "mgr tick=" << manager->ticks()
                              << " ops=" << core(c).retired() << " phase="
                              << (manager->phase() ==
                                          ManagedPrefetcher::Phase::Explore
                                      ? "explore"
                                      : "exploit")
                              << " active=" << manager->activeName()
                              << '\n';
            }
            if (last) {
                mem.flushStats();
                if (periodicAudit)
                    audits.runAll();
            }
        });
    }
}

void
SimMachine::run(std::uint64_t numInsts)
{
    std::vector<OooCore *> live;
    for (OooCore &c : cores)
        live.push_back(&c);
    runLockstep(events, std::move(live), numInsts);
    mem.flushStats();
    if (periodicAudit)
        audits.runAll();
}

SnapshotParts
SimMachine::parts()
{
    if (perCoreStats)
        fatal("snapshots need the one-core machine layout, not a "
              "co-run's");
    return SnapshotParts{events,       workload(), core(),   mem,     fdp(),
                         prefetcher(), stats[0],   memStats, stats[1]};
}

void
measurementBoundary(SimMachine &m)
{
    drainToQuiesce(m.events, m.mem);
    FDP_ASSERT(m.events.empty(),
               "measurement boundary: %zu events pending after drain",
               m.events.size());
    m.mem.flushStats();
    m.memStats.resetAll();
    for (StatGroup &g : m.stats)
        g.resetAll();
    m.mem.resetAttribution();
    for (unsigned i = 0; i < m.numCores(); ++i) {
        const CoreId c(i);
        Prefetcher *pf = m.prefetcher(c);
        m.fdp(c).setPrefetcher(pf);
        m.fdp(c).reset();
        m.mem.setPrefetcher(pf, c);
        // The prefetcher was detached all through warm-up, so for the
        // static kinds this is a no-op on an already-fresh component. A
        // ManagedPrefetcher, though, was ticked by the warm-up's
        // interval boundaries; resetting its FSM here makes the cold
        // path bit-identical to a fork restore (which rebuilds it
        // fresh).
        if (pf)
            pf->reset();
    }
}

RunResult
extractResult(SimMachine &m, const std::string &configLabel, CoreId core)
{
    // Publish batched counters before reading the stat groups directly.
    m.mem.flushStats();
    const OooCore &cpu = m.core(core);
    const FdpController &fdp = m.fdp(core);
    RunResult r;
    r.benchmark = m.workload(core).name();
    r.config = configLabel;
    r.insts = cpu.retired();
    r.cycles = cpu.cycles();
    r.ipc = cpu.ipc();
    r.busAccesses = m.mem.dram().busAccessesByCore(core);
    r.bpki = ratio(static_cast<double>(r.busAccesses),
                   static_cast<double>(r.insts) / 1000.0);
    r.accuracy = fdp.lifetimeAccuracy();
    r.lateness = fdp.lifetimeLateness();
    r.pollution = fdp.lifetimePollution();
    r.l2Misses = m.mem.l2Misses(core);
    r.demandAccesses = m.mem.demandAccesses(core);
    r.prefDropQueueFull = m.mem.prefDropQueueFull(core);
    r.mshrStallCount = m.mem.mshrStalls();
    r.avgMissLatency = m.mem.avgDemandMissLatency();
    for (const auto *s : m.memStats.scalars()) {
        if (s->name() == "demand_grants")
            r.demandGrants = s->value();
        else if (s->name() == "prefetch_grants")
            r.prefetchGrants = s->value();
        else if (s->name() == "writeback_grants")
            r.writebackGrants = s->value();
    }

    for (const auto *s : m.fdpStats(core).scalars()) {
        if (s->name() == "pref_sent")
            r.prefSent = s->value();
        else if (s->name() == "pref_used")
            r.prefUsed = s->value();
    }
    const DistributionStat &ld = fdp.levelDistribution();
    for (std::size_t i = 0; i < r.levelDist.size(); ++i)
        r.levelDist[i] = ld.fraction(i);
    const DistributionStat &id = fdp.insertDistribution();
    for (std::size_t i = 0; i < r.insertDist.size(); ++i)
        r.insertDist[i] = id.fraction(i);
    return r;
}

std::string
firstDifferingField(const RunResult &a, const RunResult &b,
                    std::string_view skip)
{
    std::string differs;
    forEachRunResultField([&](const char *name, auto member) {
        if (differs.empty() && name != skip &&
            !sameBits(a.*member, b.*member))
            differs = name;
    });
    return differs;
}

RunResult
runWorkload(Workload &workload, const RunConfig &config,
            const std::string &configLabel)
{
    SimMachine m(workload, config);
    if (config.warmupInsts > 0) {
        m.run(config.warmupInsts);
        measurementBoundary(m);
    }
    m.run(config.numInsts);
    return extractResult(m, configLabel);
}

RunResult
runBenchmark(const std::string &benchmark, const RunConfig &config,
             const std::string &configLabel)
{
    // The workload seed is the benchmark's hand-calibrated one from
    // spec_suite.cc — a pure function of the benchmark name and nothing
    // else. Every configuration therefore simulates the identical
    // trace, so cross-config deltas isolate the config effect, and
    // results stay bit-identical for any thread count or completion
    // order (DESIGN.md Section 10).
    SyntheticWorkload workload(benchmarkParams(benchmark));
    return runWorkload(workload, config, configLabel);
}

RunResult
recordBenchmark(const std::string &benchmark, const RunConfig &config,
                const std::string &configLabel,
                const std::string &tracePath)
{
    const SyntheticParams &params = benchmarkParams(benchmark);
    SyntheticWorkload workload(params);
    TraceWriter writer(tracePath, benchmark, params.seed);
    RecordingWorkload recorder(workload, writer);
    const RunResult r = runWorkload(recorder, config, configLabel);
    writer.finish();
    return r;
}

RunResult
replayTrace(const std::string &tracePath, const RunConfig &config,
            const std::string &configLabel)
{
    TraceWorkload workload(tracePath);
    const std::uint64_t available = workload.reader().header().opCount;
    if (config.warmupInsts + config.numInsts > available)
        fatal("trace %s holds %llu micro-ops but this run consumes "
              "%llu; record a longer trace", tracePath.c_str(),
              static_cast<unsigned long long>(available),
              static_cast<unsigned long long>(config.warmupInsts +
                                              config.numInsts));
    return runWorkload(workload, config, configLabel);
}

std::uint64_t
parseCountArg(const char *flag, const char *text, std::uint64_t maxValue)
{
    if (text == nullptr || *text == '\0')
        fatal("%s: empty value (expected a positive integer)", flag);
    std::uint64_t value = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc::result_out_of_range)
        fatal("%s: value `%s' does not fit in 64 bits", flag, text);
    if (ec != std::errc() || ptr != end)
        fatal("%s: `%s' is not a positive integer", flag, text);
    if (value == 0)
        fatal("%s: must be at least 1", flag);
    if (value > maxValue)
        fatal("%s: %llu is implausibly large (max %llu)", flag,
              static_cast<unsigned long long>(value),
              static_cast<unsigned long long>(maxValue));
    return value;
}

double
parseDecimalArg(const char *flag, const char *text)
{
    if (text == nullptr || *text == '\0')
        fatal("%s: empty value (expected a positive decimal number)", flag);
    double value = 0.0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] =
        std::from_chars(text, end, value, std::chars_format::fixed);
    if (ec != std::errc() || ptr != end || !std::isfinite(value))
        fatal("%s: `%s' is not a positive decimal number", flag, text);
    if (value <= 0.0)
        fatal("%s: must be above 0 (got `%s')", flag, text);
    return value;
}

} // namespace fdp
