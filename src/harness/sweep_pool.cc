#include "harness/sweep_pool.hh"

// fdp-analyze: suppress-file(wall-clock, steady_clock feeds
// SweepStopwatch, which times the stderr sweep report lines only;
// simulated results never read it)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include "harness/reporting.hh"
#include "harness/result_store.hh"
#include "harness/warm_fork.hh"
#include "sim/logging.hh"
#include "workload/spec_suite.hh"

namespace fdp
{

namespace
{

// More workers than this is a configuration typo, not a machine.
constexpr std::uint64_t kMaxSweepJobs = 4096;

} // namespace

void
SweepStoreConfig::check() const
{
    if (resume && dir.empty())
        fatal("--resume needs --store DIR (nothing to resume from)");
}

void
runJobs(const std::vector<std::function<void()>> &jobs, unsigned threads)
{
    if (threads > jobs.size())
        threads = static_cast<unsigned>(jobs.size());
    if (threads <= 1) {
        for (const auto &job : jobs)
            job();
        return;
    }
    std::vector<std::exception_ptr> errors(jobs.size());
    std::atomic<std::size_t> next{0};
    {
        std::vector<std::jthread> workers;
        workers.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            workers.emplace_back([&] {
                // A fatal() inside a job must not std::exit(1) from a
                // worker while its siblings run: the guard turns it into
                // a FatalError, kept in the job's slot like any other
                // exception.
                const detail::FatalThrowsGuard fatalThrows;
                for (std::size_t i = next++; i < jobs.size(); i = next++) {
                    try {
                        jobs[i]();
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            });
    }  // the jthreads join here, so the re-raise below cannot race them
    for (const std::exception_ptr &error : errors) {
        if (!error)
            continue;
        try {
            std::rethrow_exception(error);
        } catch (const FatalError &e) {
            fatal("%s", e.what());
        }
    }
}

SweepStopwatch::SweepStopwatch()
    : start_(std::chrono::steady_clock::now().time_since_epoch())
{
}

double
SweepStopwatch::seconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch() - start_)
        .count();
}

void
SweepStopwatch::printThroughput(std::size_t runs, unsigned jobs) const
{
    const double wall = seconds();
    std::ostringstream line;
    line << "sweep-throughput: runs=" << runs << " jobs=" << jobs
         << std::fixed << " wall_s=" << std::setprecision(3) << wall
         << " runs_per_s=" << std::setprecision(2)
         << (wall > 0.0 ? static_cast<double>(runs) / wall : 0.0) << '\n';
    std::cerr << line.str();
}

std::vector<std::vector<RunResult>>
runSweep(const std::vector<std::string> &benchmarks,
         const std::vector<LabeledConfig> &configs, unsigned jobs,
         const SweepStoreConfig &storeCfg)
{
    if (jobs == 0)
        jobs = defaultSweepJobs();
    const std::size_t cells = benchmarks.size() * configs.size();
    // Clamp so the throughput line reports the worker count that
    // actually ran the cells: never more than one per cell.
    if (static_cast<std::size_t>(jobs) > cells)
        jobs = cells == 0 ? 1 : static_cast<unsigned>(cells);
    // A bad benchmark name is a user error: report it from the main
    // thread, before any worker exists, instead of from inside a job.
    for (const auto &b : benchmarks)
        benchmarkParams(b);
    const SweepStopwatch sweepClock;

    std::vector<std::vector<RunResult>> results(configs.size());
    for (auto &row : results)
        row.resize(benchmarks.size());

    // The sweep runs as up to three runJobs phases, each a barrier
    // before the next: store-key trace hashes, warm captures, then the
    // cells. Every job writes only its own pre-sized slot, so no result
    // depends on which worker ran which job.

    // Phase 1, with a result store: hash each distinct (benchmark,
    // numInsts) workload stream on the workers. Then, on the main thread
    // and in cell order, build every cell's key and serve resumable
    // cells straight into their slots. The cell jobs of phase 3 only
    // insert, each into its own entry file.
    std::unique_ptr<ResultStore> store;
    std::vector<StoreKey> keys;
    std::vector<char> cached;
    std::size_t hits = 0;
    if (storeCfg.enabled()) {
        store = std::make_unique<ResultStore>(storeCfg.dir);
        std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
            traceHashes;
        for (std::size_t cell = 0; cell < cells; ++cell)
            traceHashes.emplace(
                std::make_pair(benchmarks[cell % benchmarks.size()],
                               configs[cell / benchmarks.size()]
                                   .second.numInsts),
                0);
        std::vector<std::function<void()>> hashJobs;
        for (auto &[stream, hash] : traceHashes)
            hashJobs.push_back([&stream = stream, &hash = hash] {
                hash = workloadTraceHash(stream.first, stream.second);
            });
        runJobs(hashJobs, jobs);

        keys.resize(cells);
        cached.assign(cells, 0);
        for (std::size_t cell = 0; cell < cells; ++cell) {
            const std::size_t c = cell / benchmarks.size();
            const std::size_t b = cell % benchmarks.size();
            const auto &[label, cfg] = configs[c];
            keys[cell] = makeStoreKey(
                benchmarks[b], cfg, label,
                traceHashes.at(std::make_pair(benchmarks[b], cfg.numInsts)));
            if (storeCfg.resume &&
                store->lookup(keys[cell], &results[c][b])) {
                cached[cell] = 1;
                ++hits;
            }
        }
    }
    const auto isCached = [&](std::size_t cell) {
        return !cached.empty() && cached[cell] != 0;
    };

    // Phase 2, warm captures: cells with a warm-up phase share one
    // neutral warm image per (benchmark, geometry, warm-up) group. One
    // job per group serves it from the store's snaps/ subdirectory or
    // captures it; each cell then fork-restores its group's image.
    // Restoring is bit-identical to warming in place (DESIGN.md Section
    // 16), so results do not depend on whether forking is active, nor
    // on which worker captured what; FDP_NO_WARM_FORK=1 forces every
    // cell down the cold in-place path.
    struct WarmGroup
    {
        std::size_t cell;  ///< first cell of the group
        SnapshotImage image;
        bool storeHit = false;
    };
    constexpr std::size_t kColdWarmup = SIZE_MAX;
    std::vector<WarmGroup> groups;
    std::vector<std::size_t> cellGroup(cells, kColdWarmup);
    double captureSeconds = 0.0;
    const char *noForkEnv = std::getenv("FDP_NO_WARM_FORK");
    if (noForkEnv == nullptr || *noForkEnv == '\0' ||
        std::strcmp(noForkEnv, "0") == 0) {
        std::map<std::tuple<std::string, std::string, std::uint64_t>,
                 std::size_t>
            groupOf;
        for (std::size_t cell = 0; cell < cells; ++cell) {
            const RunConfig &cfg = configs[cell / benchmarks.size()].second;
            if (isCached(cell) || cfg.warmupInsts == 0)
                continue;
            const auto [it, added] = groupOf.try_emplace(
                std::make_tuple(benchmarks[cell % benchmarks.size()],
                                machineGeometry(cfg.machine, cfg.core),
                                cfg.warmupInsts),
                groups.size());
            if (added)
                groups.push_back({cell, {}});
            cellGroup[cell] = it->second;
        }
        std::vector<std::function<void()>> captures;
        for (WarmGroup &g : groups)
            captures.push_back([&, &g = g] {
                g.image = loadOrCaptureWarmSnapshot(
                    storeCfg.dir, benchmarks[g.cell % benchmarks.size()],
                    configs[g.cell / benchmarks.size()].second,
                    &g.storeHit);
            });
        const SweepStopwatch captureClock;
        runJobs(captures, jobs);
        captureSeconds = captureClock.seconds();
    }

    // Phase 3, the cells, in config-major order.
    std::vector<std::function<void()>> work;
    for (std::size_t cell = 0; cell < cells; ++cell) {
        if (isCached(cell))
            continue;
        work.push_back([&, cell] {
            const std::size_t c = cell / benchmarks.size();
            const std::size_t b = cell % benchmarks.size();
            const auto &[label, cfg] = configs[c];
            const std::size_t g = cellGroup[cell];
            results[c][b] =
                g == kColdWarmup
                    ? runBenchmark(benchmarks[b], cfg, label)
                    : runBenchmarkFromSnapshot(groups[g].image, cfg, label);
            if (store)
                store->insert(keys[cell], results[c][b]);
        });
    }
    runJobs(work, jobs);

    sweepClock.printThroughput(cells - hits, jobs);  // cells simulated
    // Like the throughput line: stderr only, so stdout result tables
    // stay bit-identical between cold and resumed runs.
    if (store)
        std::cerr << "sweep-store: dir=" << store->dir()
                  << " resume=" << (storeCfg.resume ? 1 : 0)
                  << " hits=" << hits << " misses=" << (cells - hits)
                  << '\n';
    if (!groups.empty()) {
        const auto snapHits = static_cast<std::size_t>(
            std::count_if(groups.begin(), groups.end(),
                          [](const WarmGroup &g) { return g.storeHit; }));
        std::ostringstream line;
        line << "sweep-snap: groups=" << groups.size()
             << " store-hits=" << snapHits
             << " captured=" << (groups.size() - snapHits) << std::fixed
             << std::setprecision(3) << " capture_s=" << captureSeconds
             << '\n';
        std::cerr << line.str();
    }
    return results;
}

unsigned
defaultSweepJobs()
{
    if (const char *env = std::getenv("FDP_JOBS"))
        return static_cast<unsigned>(
            parseCountArg("FDP_JOBS", env, kMaxSweepJobs));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

Flag
instsFlag(std::uint64_t &insts)
{
    return {"--insts", "N", "micro-ops each run retires",
            [&insts](const char *v) { insts = parseCountArg("--insts", v); }};
}

Flag
quickFlag(std::uint64_t &insts)
{
    return {"--quick", "", "shorthand for --insts 1000000",
            [&insts](const char *) { insts = 1'000'000; }};
}

Flag
jobsFlag(unsigned &jobs)
{
    return {"--jobs", "N",
            "worker threads (default: FDP_JOBS, else every hardware\n"
            "thread); results are bit-identical for any N",
            [&jobs](const char *v) {
                jobs = static_cast<unsigned>(
                    parseCountArg("--jobs", v, kMaxSweepJobs));
            }};
}

Flag
storeFlag(SweepStoreConfig &store)
{
    return {"--store", "DIR", "persist every run in the result store DIR",
            [&store](const char *v) { store.dir = v; }};
}

Flag
resumeFlag(SweepStoreConfig &store)
{
    return {"--resume", "",
            "serve runs already in --store DIR from it (stdout stays\n"
            "bit-identical to a cold run)",
            [&store](const char *) { store.resume = true; }};
}

Flag
outFlag(std::string &path)
{
    return {"--out", "PATH",
            "write per-run metrics to PATH as fdp-results-v1 JSON",
            [&path](const char *v) { path = v; }};
}

SweepArgs
parseSweepArgs(int argc, char **argv, std::uint64_t insts)
{
    SweepArgs args;
    args.insts = insts;
    parseFlags(argc, argv,
               {instsFlag(args.insts), quickFlag(args.insts),
                jobsFlag(args.jobs), storeFlag(args.store),
                resumeFlag(args.store), outFlag(args.out)});
    args.store.check();
    if (args.jobs == 0)
        args.jobs = defaultSweepJobs();
    return args;
}

std::vector<std::string>
labelsOf(const std::vector<LabeledConfig> &configs)
{
    std::vector<std::string> labels;
    for (const auto &[label, config] : configs)
        labels.push_back(label);
    return labels;
}

std::vector<std::vector<RunResult>>
runSweep(const SweepArgs &args, const std::string &source,
         const std::vector<std::string> &benchmarks,
         std::vector<LabeledConfig> configs)
{
    for (auto &[label, config] : configs)
        config.numInsts = args.insts;
    auto results = runSweep(benchmarks, configs, args.jobs, args.store);
    writeSweepResults(args.out, source, benchmarks, labelsOf(configs),
                      results);
    return results;
}

} // namespace fdp
