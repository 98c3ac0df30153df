/**
 * @file
 * Decorated machines for the traced runs.
 *
 * The benchmark assembles each machine from the simulator's public
 * classes, the way fdp::SimMachine and fdp::runMcWorkloads do, but puts
 * a forwarding decorator at every layer boundary it can reach and
 * drives the cores through OooCore's stepped interface so that the
 * event queue and the core step are timed too. Nothing inside src/
 * changes; a decorated run must equal the library's run bit for bit,
 * which the workloads check cell by cell.
 */

#ifndef PERFBENCH_MACHINES_HH
#define PERFBENCH_MACHINES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "decorators.hh"
#include "harness/experiment.hh"
#include "mc/mc_machine.hh"
#include "mc/mix_runner.hh"
#include "snap/snapshot_file.hh"
#include "tracer.hh"

namespace perfbench
{

/** Observe timing of one prefetcher kind (or kind on one benchmark). */
struct ObserveStat
{
    std::uint64_t calls = 0;
    std::uint64_t candidates = 0;
    std::int64_t ns = 0;
};

/**
 * Simulated counters of a traced pass, summed over its cells. They are
 * read from the same machines the spans time, so the ratios of the
 * per-layer report are measured where the work happens.
 */
struct SimCounters
{
    std::uint64_t retiredOps = 0;  ///< every simulated op, warm-up included
    std::uint64_t cycles = 0;      ///< measured cycles, summed over cores
    std::uint64_t robFullCycles = 0;
    std::uint64_t workloadCalls = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t missFills = 0;
    std::uint64_t missCycles = 0;
    std::uint64_t mcAccesses = 0;
    std::uint64_t crossPollution = 0;
    std::uint64_t prefSent = 0;
    std::uint64_t prefUsed = 0;
    std::uint64_t dropQueueFull = 0;
    std::uint64_t intervals = 0;
    std::uint64_t levelSum = 0;
    std::uint64_t levelSamples = 0;
    double latenessSum = 0.0;
    double pollutionSum = 0.0;
    std::uint64_t fdpRuns = 0;
    std::uint64_t busAccesses = 0;
    std::uint64_t busBusyCycles = 0;
    std::uint64_t busCapacityCycles = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t queueSum = 0;
    std::uint64_t queueSamples = 0;
    std::uint64_t events = 0;
    /** Keyed by prefetcher name, and by "name@benchmark". */
    std::map<std::string, ObserveStat> observe;

    void addObserve(const std::string &benchmark,
                    const TracedPrefetcher &pf);
};

/** Single-core machine wired like fdp::SimMachine, decorated. */
struct TracedMachine
{
    TracedMachine(fdp::Workload &inner, const fdp::RunConfig &config,
                  Tracer *tracer);

    /** Snapshot view, with the decorators standing in for their
     *  inner objects. */
    fdp::SnapshotParts parts();

    Tracer *tracer;
    fdp::RunConfig config;
    /** Set once the measured phase starts (gates hook sampling). */
    bool measuring = false;
    fdp::EventQueue events;
    fdp::StatGroup fdpStats{"fdp"};
    fdp::StatGroup memStats{"mem"};
    fdp::StatGroup coreStats{"core"};
    std::unique_ptr<fdp::Prefetcher> innerPf;
    std::unique_ptr<TracedPrefetcher> prefetcher;
    fdp::FdpController fdp;
    fdp::MemorySystem mem;
    TracedPort port;
    TracedWorkload workload;
    fdp::OooCore core;
};

/**
 * One single-core cell. With @p image the machine is fork-restored
 * from the warm image (fdp::runBenchmarkFromSnapshot); otherwise a
 * nonzero warmupInsts is simulated in place (fdp::runWorkload). The
 * cell's spans are filed under @p label.
 */
fdp::RunResult runTracedCell(fdp::Workload &workload,
                             const fdp::RunConfig &config,
                             const std::string &label,
                             const fdp::SnapshotImage *image, Tracer *tracer,
                             SimCounters &counters);

/** fdp::captureWarmSnapshot on a decorated neutral machine. */
fdp::SnapshotImage captureTracedWarmSnapshot(const std::string &benchmark,
                                             const fdp::RunConfig &config,
                                             Tracer *tracer,
                                             SimCounters &counters);

/** fdp::runMcWorkloads on a decorated machine. */
fdp::McRunResult
runTracedMc(const fdp::McRunConfig &config,
            const std::vector<std::unique_ptr<fdp::Workload>> &workloads,
            const std::string &mixName, const std::string &label,
            Tracer *tracer, SimCounters &counters);

/** fdp::runMixSweep at one worker, every cell decorated. Mixes with
 *  per-core prefetcher selections are not supported. */
std::vector<fdp::McRunResult>
runTracedMixSweep(const fdp::MixSpec &mix,
                  const std::vector<fdp::McLabeledConfig> &configs,
                  Tracer *tracer, SimCounters &counters);

/** Bit-for-bit equality of every RunResult field. */
bool sameResult(const fdp::RunResult &a, const fdp::RunResult &b);

/** Bit-for-bit equality of every McRunResult field, per core too. */
bool sameResult(const fdp::McRunResult &a, const fdp::McRunResult &b);

} // namespace perfbench

#endif // PERFBENCH_MACHINES_HH
