/**
 * @file
 * The benchmark's three workloads (see perfbench/README.md for why each
 * exists and which layers it stresses).
 *
 * Each workload runs in its own process and offers:
 *  - setup(): the program work that comes before the first timed cell
 *    (zoo-replay records its traces; the others have none);
 *  - rep(): one timed repetition of exactly the workload's cells, through
 *    the simulator's public entry points, as a user runs the job;
 *  - check(): the equivalence checks and the base cells that only the
 *    simulated metrics need, outside the timed phase;
 *  - tracedPair(): one untraced and one traced pass over the same cells,
 *    single-threaded, for the per-layer report.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "machines.hh"
#include "tracer.hh"

namespace perfbench
{

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * Per-cell pass/fail record. A cell fails when any check on it fails;
 * cells_failed is the failed share.
 */
class CheckTally
{
  public:
    void check(const std::string &cell, bool ok, const std::string &what);

    std::uint64_t attempted() const { return cells_.size(); }
    std::uint64_t failed() const;

  private:
    std::map<std::string, bool> cells_;
};

/** What one untraced + traced pass pair measured. */
struct TracedPair
{
    double untracedS = 0.0;
    double tracedS = 0.0;
    double warmCaptureS = 0.0;
    double forkRunS = 0.0;
    double imageBytes = 0.0;
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    virtual void setup() {}

    /** One timed repetition; returns the measured micro-ops it retired
     *  (warm-up excluded), summed over cells and cores. */
    virtual std::uint64_t rep(CheckTally &tally) = 0;

    virtual void check(CheckTally &tally) = 0;

    /** Simulated end-to-end metrics of the timed phase's results. */
    virtual std::vector<Metric> simulatedMetrics() const = 0;

    /** Reference comparison lines (empty when nothing is validated). */
    virtual std::vector<std::string> referenceLines() const { return {}; }

    virtual TracedPair tracedPair(Tracer &tracer, SimCounters &counters,
                                  CheckTally &tally) = 0;
};

/** Parameters a workload is built from. */
struct WorkloadOptions
{
    std::uint64_t seed = 1;
    /** Scratch directory for recorded traces (zoo-replay). */
    std::string workDir;
    /** Worker threads for the parallel workloads. */
    unsigned jobs = 4;
    /** Shrinks every cell for the self-tests (1 = benchmark size). */
    std::uint64_t scaleDown = 1;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build the named workload; fatal on an unknown name. */
std::unique_ptr<BenchWorkload> makeWorkload(const std::string &name,
                                            const WorkloadOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
