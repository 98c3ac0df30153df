/**
 * @file
 * Experiment runner: assembles a full simulated machine (workload ->
 * core -> memory system -> prefetcher -> FDP controller), runs it, and
 * returns the metrics every paper table/figure is built from.
 */

#ifndef FDP_HARNESS_EXPERIMENT_HH
#define FDP_HARNESS_EXPERIMENT_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/fdp_controller.hh"
#include "cpu/ooo_core.hh"
#include "manage/prefetcher_manager.hh"
#include "mem/memory_system.hh"
#include "prefetch/prefetcher.hh"
#include "sim/check.hh"
#include "snap/machine_snapshot.hh"
#include "workload/generators.hh"

namespace fdp
{

/** Which prefetcher the machine uses. */
enum class PrefetcherKind : std::uint8_t
{
    None,
    Stream,
    GhbCdc,
    Stride,
    Vldp,
    Dspatch,
    NextLine,
};

/** Whether a runtime manager sits above the prefetcher. */
enum class ManagerKind : std::uint8_t
{
    /** The configured PrefetcherKind runs statically. */
    Off,
    /** ManagedPrefetcher explores/exploits the configured zoo. */
    Explore,
};

/** One complete machine + policy configuration. */
struct RunConfig
{
    MachineParams machine;
    CoreParams core;
    PrefetcherKind prefetcher = PrefetcherKind::Stream;
    /** Aggressiveness used while dynamic aggressiveness is off. */
    unsigned staticLevel = kMaxAggrLevel;
    FdpParams fdp;
    /** Runtime prefetcher management above FDP (DESIGN.md §17). */
    ManagerKind manager = ManagerKind::Off;
    ManagerParams managerParams;
    /** Candidate zoo when manager != Off; empty = defaultManagerZoo(). */
    std::vector<PrefetcherKind> managerZoo;
    std::uint64_t numInsts = 5'000'000;
    /**
     * Instructions simulated before measurement begins. The warm-up
     * phase runs with the prefetcher detached, so the warmed machine
     * state is a pure function of (benchmark, machine geometry,
     * warmupInsts) — never of the prefetcher or FDP policy — and one
     * warm snapshot can seed every cell of a policy sweep
     * (DESIGN.md Section 16). 0 (the default) measures from reset.
     */
    std::uint64_t warmupInsts = 0;

    /// @name Named configurations used throughout the paper
    /// @{

    /** No prefetcher at all. */
    static RunConfig noPrefetching();

    /** Traditional static configuration at @p level, MRU insertion. */
    static RunConfig staticLevelConfig(unsigned level,
                                       InsertPos ins = InsertPos::Mru);

    /** Dynamic Aggressiveness only (Section 5.1). */
    static RunConfig dynamicAggressiveness();

    /** Dynamic Insertion only, on a Very Aggressive prefetcher (5.2). */
    static RunConfig dynamicInsertion(unsigned staticLevel = kMaxAggrLevel);

    /** Full FDP: Dynamic Aggressiveness + Dynamic Insertion (5.3). */
    static RunConfig fullFdp();

    /** Section 5.6 ablation: throttle on accuracy alone. */
    static RunConfig accuracyOnlyFdp();

    /// @}
};

/** Everything a bench binary needs from one run. */
struct RunResult
{
    std::string benchmark;
    std::string config;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;
    /** Memory bus accesses per thousand retired instructions. */
    double bpki = 0.0;
    double accuracy = 0.0;
    double lateness = 0.0;
    double pollution = 0.0;
    std::uint64_t prefSent = 0;
    std::uint64_t prefUsed = 0;
    std::uint64_t busAccesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandGrants = 0;
    std::uint64_t prefetchGrants = 0;
    std::uint64_t writebackGrants = 0;
    std::uint64_t mshrStallCount = 0;
    std::uint64_t prefDropQueueFull = 0;
    double avgMissLatency = 0.0;
    /** Fraction of sampling intervals at each aggressiveness level. */
    std::array<double, 5> levelDist{};
    /** Fraction of prefetch fills per insertion position (LRU..MRU). */
    std::array<double, 4> insertDist{};
};

/**
 * The one list of RunResult's fields: calls @p visit(name, member) for
 * each, in result-store order, with the field's fdp-store-v1 name and a
 * pointer to the member. The store's writer and reader and
 * firstDifferingField() all walk it, so a new field needs only its
 * declaration, its extraction and one line here.
 */
template <class Visit>
void
forEachRunResultField(Visit &&visit)
{
    visit("benchmark", &RunResult::benchmark);
    visit("config", &RunResult::config);
    visit("insts", &RunResult::insts);
    visit("cycles", &RunResult::cycles);
    visit("ipc", &RunResult::ipc);
    visit("bpki", &RunResult::bpki);
    visit("accuracy", &RunResult::accuracy);
    visit("lateness", &RunResult::lateness);
    visit("pollution", &RunResult::pollution);
    visit("pref_sent", &RunResult::prefSent);
    visit("pref_used", &RunResult::prefUsed);
    visit("bus_accesses", &RunResult::busAccesses);
    visit("l2_misses", &RunResult::l2Misses);
    visit("demand_accesses", &RunResult::demandAccesses);
    visit("demand_grants", &RunResult::demandGrants);
    visit("prefetch_grants", &RunResult::prefetchGrants);
    visit("writeback_grants", &RunResult::writebackGrants);
    visit("mshr_stall_count", &RunResult::mshrStallCount);
    visit("pref_drop_queue_full", &RunResult::prefDropQueueFull);
    visit("avg_miss_latency", &RunResult::avgMissLatency);
    visit("level_dist", &RunResult::levelDist);
    visit("insert_dist", &RunResult::insertDist);
}

/** Equality of two field values; numbers compare as bit patterns, so
 *  0.0 and -0.0 differ and equal NaNs match. */
template <class T>
bool
sameBits(const T &x, const T &y)
{
    if constexpr (std::is_trivially_copyable_v<T>)
        return std::memcmp(&x, &y, sizeof x) == 0;
    else
        return x == y;
}

/**
 * The name of the first field (in forEachRunResultField order) whose
 * value differs between @p a and @p b bit for bit, doubles included;
 * "" when every field matches. The field named @p skip is not compared
 * (pass "config" to compare runs made under two labels).
 */
std::string firstDifferingField(const RunResult &a, const RunResult &b,
                                std::string_view skip = {});

/** Build the configured prefetcher (nullptr for PrefetcherKind::None). */
std::unique_ptr<Prefetcher> makePrefetcher(PrefetcherKind kind,
                                           unsigned level);

/** Stable CLI/name-table identifier for @p kind ("stream", "vldp", …). */
const char *prefetcherKindName(PrefetcherKind kind);

/**
 * A per-core prefetcher selection as named on a command line or in a
 * workload mix: either one concrete PrefetcherKind, or the runtime
 * manager over the default zoo.
 */
struct PrefetcherSelection
{
    PrefetcherKind kind = PrefetcherKind::Stream;
    ManagerKind manager = ManagerKind::Off;
};

/** Every name prefetcherSelectionFromName accepts, in display order. */
const std::vector<std::string> &knownPrefetcherNames();

/** Resolve "none|stream|ghb|stride|vldp|dspatch|nextline|manager";
 *  unknown names are a clean fatal listing the valid ones. */
PrefetcherSelection prefetcherSelectionFromName(const std::string &name);

/** Apply @p name's selection to a copy of @p base. */
RunConfig applyPrefetcherSelection(const RunConfig &base,
                                   const std::string &name);

/** The manager's candidate zoo when RunConfig.managerZoo is empty. */
std::vector<PrefetcherKind> defaultManagerZoo();

/** FdpParams as the machine actually runs them: a static-aggressiveness
 *  configuration pins the controller to the static level. */
FdpParams resolvedFdpParams(const RunConfig &config);

/**
 * Build the run's prefetcher from the full config: the static
 * PrefetcherKind when the manager is off, or a ManagedPrefetcher over
 * the configured zoo (every candidate at the config's start level).
 */
std::unique_ptr<Prefetcher> makeRunPrefetcher(const RunConfig &config);

/**
 * The one simulated-machine assembly, for 1 to N cores: the event
 * queue, the stat groups, each core's prefetcher and FDP controller,
 * one memory system, and the cores, wired together for a RunConfig.
 * Single-core runs, warm forks, snapshots, and co-runs all build one.
 *
 * When config.warmupInsts is 0 the prefetchers are attached from
 * construction. Otherwise they are built but left detached — the
 * warm-up phase runs prefetcher-free, and measurementBoundary()
 * attaches them.
 *
 * The machine audits itself: a managed core's end-of-interval hook
 * ticks its manager off that core's feedback, and the last core's hook
 * — shared-L2 evictions tick the controllers in core order, so every
 * core's interval has then closed — publishes the batched counters
 * and, in debug builds or under FDP_AUDIT=1, audits every component.
 */
struct SimMachine
{
    /** One core; stat groups fdp, mem, and core (the fdpsnap-v1 layout). */
    SimMachine(Workload &workload, const RunConfig &config);

    /**
     * One core per workload; stat group mem plus c<i> per core, and
     * controllers labelled fdp_controller.c<i>. Core i runs
     * @p corePrefetchers[i] (a prefetcherSelectionFromName name), or
     * @p config's own selection when the list is empty.
     */
    SimMachine(const RunConfig &config,
               const std::vector<Workload *> &workloads,
               const std::vector<std::string> &corePrefetchers);

    /** The interval hooks hold the machine's address. */
    SimMachine(const SimMachine &) = delete;
    SimMachine &operator=(const SimMachine &) = delete;

    /**
     * Run every core in lockstep until each has retired @p numInsts
     * micro-ops (runLockstep), then publish the batched counters and,
     * when periodic audits are on, audit the machine.
     */
    void run(std::uint64_t numInsts);

    /** The snapshot view of the one-core layout (fatal otherwise). */
    SnapshotParts parts();

    /// @name Per-core views
    /// @{
    unsigned numCores() const { return static_cast<unsigned>(cores.size()); }
    OooCore &core(CoreId c = kCore0) { return cores[c.index()]; }
    FdpController &fdp(CoreId c = kCore0) { return controllers[c.index()]; }
    Prefetcher *
    prefetcher(CoreId c = kCore0)
    {
        return prefetchers[c.index()].get();
    }
    Workload &workload(CoreId c = kCore0) { return *workloads[c.index()]; }
    /** The group holding core @p c's FDP controller statistics. */
    StatGroup &
    fdpStats(CoreId c = kCore0)
    {
        return stats[perCoreStats ? c.index() : 0];
    }
    /// @}

    /** True for the co-run layout (one c<i> group per core). */
    bool perCoreStats;
    EventQueue events;
    StatGroup memStats{"mem"};
    /** fdp and core on the one-core layout; c0, c1, … on the co-run
     *  layout. */
    std::deque<StatGroup> stats;
    /** Built before mem, which points at every controller. */
    std::deque<FdpController> controllers;
    MemorySystem mem;
    /** Each core's L2 prefetcher (null for none). */
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    std::deque<OooCore> cores;
    std::vector<Workload *> workloads;
    AuditSet audits;
    /** Audit at every interval boundary and after every run(). */
    bool periodicAudit;

  private:
    SimMachine(const RunConfig &config,
               const std::vector<Workload *> &workloads,
               const std::vector<std::string> &corePrefetchers,
               bool perCoreStats);
};

/**
 * Transition @p m from warm-up to measurement: drain in-flight misses
 * to a quiesce point, flush and zero every statistic, zero DRAM's
 * per-core attribution, and, on every core, reset the FDP controller
 * to its configured initial policy and attach the per-configuration
 * prefetcher. Both the cold path (after an in-place warm-up run) and
 * the fork path (after restoring a warm snapshot) cross exactly this
 * boundary, which is what makes them bit-identical.
 */
void measurementBoundary(SimMachine &m);

/** Pull core @p core's RunResult out of a finished measured run (the
 *  bus-grant, MSHR-stall, and miss-latency fields are machine-wide). */
RunResult extractResult(SimMachine &m, const std::string &configLabel,
                        CoreId core = kCore0);

/**
 * Run one named SPEC stand-in under @p config.
 *
 * The workload seed is the benchmark's calibrated one from
 * spec_suite.cc — a pure function of the benchmark name alone, never of
 * the configuration, scheduling, or completion order of other runs. All
 * configurations therefore see the identical trace (DESIGN.md Section
 * 10); runWorkload leaves caller-built workloads untouched.
 */
RunResult runBenchmark(const std::string &benchmark,
                       const RunConfig &config,
                       const std::string &configLabel);

/** Run a custom workload under @p config. */
RunResult runWorkload(Workload &workload, const RunConfig &config,
                      const std::string &configLabel);

/**
 * Run @p benchmark live exactly as runBenchmark does while recording
 * every micro-op the core consumes into an fdptrace-v1 file at
 * @p tracePath. The core pulls exactly numInsts ops, so replaying the
 * file with the same configuration is bit-identical to this run.
 */
RunResult recordBenchmark(const std::string &benchmark,
                          const RunConfig &config,
                          const std::string &configLabel,
                          const std::string &tracePath);

/**
 * Replay a recorded trace through the standard machine. Fatal (before
 * simulating anything) when the trace holds fewer micro-ops than
 * config.numInsts would consume.
 */
RunResult replayTrace(const std::string &tracePath,
                      const RunConfig &config,
                      const std::string &configLabel);

/**
 * Parse the value of a numeric command-line flag defensively: fatal
 * (with the offending flag and text in the message) unless @p text is
 * a plain positive decimal integer no larger than @p maxValue.
 */
std::uint64_t parseCountArg(const char *flag, const char *text,
                            std::uint64_t maxValue = ~0ull);

/**
 * Parse the value of a fractional command-line flag defensively: fatal
 * (with the offending flag and text in the message) unless @p text is a
 * plain decimal number ("4.5", "12") that is finite and above zero.
 */
double parseDecimalArg(const char *flag, const char *text);

} // namespace fdp

#endif // FDP_HARNESS_EXPERIMENT_HH
