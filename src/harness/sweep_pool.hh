/**
 * @file
 * Parallel sweep scheduler for the experiment harness.
 *
 * Every paper artifact is a benchmark x configuration sweep of fully
 * independent simulated machines, so the harness fans each (benchmark,
 * config) cell out to a fixed-size thread pool. Determinism contract
 * (DESIGN.md Section 10): each run's workload seed is the benchmark's
 * calibrated one from spec_suite.cc — a pure function of the benchmark
 * name, so every config sees the identical trace — and a run shares no
 * mutable state with any other run, so result tables are bit-identical
 * regardless of thread count or completion order.
 *
 * This is the only file in src/ or tools/ allowed to touch std::thread
 * (enforced by fdp_analyze rule pool-only-threading).
 */

#ifndef FDP_HARNESS_SWEEP_POOL_HH
#define FDP_HARNESS_SWEEP_POOL_HH

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/cli.hh"
#include "harness/experiment.hh"

namespace fdp
{

/**
 * Fixed-size worker pool. Jobs are opaque closures; the pool makes no
 * fairness or ordering guarantee between them, which is why sweep
 * results are written into pre-sized slots instead of being collected
 * in completion order.
 */
class SweepPool
{
  public:
    /** Spin up @p threads workers (clamped to at least one). */
    explicit SweepPool(unsigned threads);

    /**
     * Joins all workers. Jobs that have not started yet are dropped so
     * an early exit (e.g. an exception unwinding a sweep) cannot hang
     * on a deep queue; the currently running jobs complete first.
     */
    ~SweepPool();

    SweepPool(const SweepPool &) = delete;
    SweepPool &operator=(const SweepPool &) = delete;

    /** Enqueue one job. Must not be called concurrently with wait(). */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished, then rethrow the
     * first exception any job raised (if one did).
     */
    void wait();

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> pending_;
    std::vector<std::thread> workers_;
    std::size_t running_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Run every job of @p jobs in order on min(@p threads, jobs.size())
 * threads: inline on the calling thread when that is at most 1, else
 * submitted in that order to a SweepPool of that many workers. Returns
 * once every job has finished (a barrier). A worker's fatal() is
 * re-raised here, on the calling thread, once the pool has joined
 * every worker.
 */
void runJobs(const std::vector<std::function<void()>> &jobs,
             unsigned threads);

/** One labeled configuration column of a sweep. */
using LabeledConfig = std::pair<std::string, RunConfig>;

/**
 * Result-store attachment for sweeps (see harness/result_store.hh).
 * With a directory set, every fresh cell is persisted there; with
 * resume also set, cells whose key is already present are served from
 * the store instead of being re-simulated. Because stored results are
 * bit-identical to freshly computed ones (determinism contract), the
 * merged output is byte-for-byte the same as a cold run's.
 */
struct SweepStoreConfig
{
    std::string dir;     ///< empty = store disabled
    bool resume = false; ///< reuse cells already present

    bool enabled() const { return !dir.empty(); }

    /** Fatal when asked to resume without a store directory; every
     *  parser of --store/--resume calls it. */
    void check() const;
};

/**
 * Run every (benchmark, config) cell of a sweep, fanning the cells out
 * over @p jobs worker threads (0 = defaultSweepJobs(); 1 = the plain
 * sequential path with no threads created). results[c][b] is benchmark
 * b under configs[c], in the argument order, regardless of completion
 * order. With @p store enabled, fresh cells are persisted there and,
 * under resume, stored cells are served from it. Before the cells,
 * the same workers hash each workload stream the store keys need
 * (only with a store), then load or capture one warm image per
 * (benchmark, geometry, warm-up) group of warmed cells; each phase
 * finishes before the next starts. Cells are handed to the pool
 * longest-first (LPT by the config's instruction count) so a long run
 * picked up last cannot leave the tail of the sweep running on one
 * thread; the ordering only affects wall-clock, never results. Prints
 * one sweep-throughput line to stderr (stdout tables stay
 * bit-identical across thread counts), plus sweep-store and sweep-snap
 * lines when a store or warm images are involved.
 */
std::vector<std::vector<RunResult>>
runSweep(const std::vector<std::string> &benchmarks,
         const std::vector<LabeledConfig> &configs, unsigned jobs = 0,
         const SweepStoreConfig &store = {});

/** Single-configuration sweep: results[b] is benchmark b. */
std::vector<RunResult>
runSuiteParallel(const std::vector<std::string> &benchmarks,
                 const RunConfig &config, const std::string &configLabel,
                 unsigned jobs = 0, const SweepStoreConfig &store = {});

/**
 * Sweep width when the caller does not say: FDP_JOBS from the
 * environment if set (fatal if not a positive integer), else
 * hardware_concurrency, else 1.
 */
unsigned defaultSweepJobs();

/**
 * The sweep knobs every fig/tab/sec binary takes, declared once here:
 * --insts N, --quick, --jobs N, --store DIR, --resume, and --out PATH.
 */
struct SweepArgs
{
    std::uint64_t insts = 0;  ///< micro-ops per run
    unsigned jobs = 0;        ///< worker threads
    SweepStoreConfig store;
    std::string out;          ///< results file ("" = none)
};

/// @name The sweep knobs' flag-table entries, for binaries that honour
/// only some of them
/// @{
Flag instsFlag(std::uint64_t &insts);
/** --quick: shorthand for --insts 1000000. */
Flag quickFlag(std::uint64_t &insts);
Flag jobsFlag(unsigned &jobs);
Flag storeFlag(SweepStoreConfig &store);
Flag resumeFlag(SweepStoreConfig &store);
Flag outFlag(std::string &path);
/// @}

/**
 * A sweep binary's whole command line: the six sweep flags and nothing
 * else (parseFlags), @p insts being the binary's default budget. Then
 * checks the store flags and, without --jobs, takes defaultSweepJobs().
 */
SweepArgs parseSweepArgs(int argc, char **argv, std::uint64_t insts);

/** The label of every configuration, in order. */
std::vector<std::string> labelsOf(const std::vector<LabeledConfig> &configs);

/**
 * A fig/tab/sec binary's grid: runSweep over @p configs, each run at
 * args.insts, on args.jobs workers, with args.store. With --out, the
 * results are also written there as fdp-results-v1 from @p source.
 */
std::vector<std::vector<RunResult>>
runSweep(const SweepArgs &args, const std::string &source,
         const std::vector<std::string> &benchmarks,
         std::vector<LabeledConfig> configs);

} // namespace fdp

#endif // FDP_HARNESS_SWEEP_POOL_HH
