#include "harness/sweep_pool.hh"

// fdp-analyze: suppress-file(wall-clock, steady_clock feeds the
// stderr throughput report only; simulated results never read it)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
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

SweepPool::SweepPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SweepPool::~SweepPool()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        pending_.clear();
    }
    workReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
SweepPool::submit(std::function<void()> job)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        pending_.push_back(std::move(job));
    }
    workReady_.notify_one();
}

void
SweepPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock,
                  [this] { return pending_.empty() && running_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
SweepPool::workerLoop()
{
    // A fatal() inside a job must not std::exit(1) from a worker:
    // sibling workers would still be running while static destructors
    // tear the process down. The guard turns it into a FatalError that
    // the catch below stores and wait() rethrows on the main thread.
    const detail::FatalThrowsGuard fatalThrows;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !pending_.empty();
            });
            if (stopping_)
                return;
            job = std::move(pending_.front());
            pending_.pop_front();
            ++running_;
        }
        try {
            job();
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --running_;
            if (pending_.empty() && running_ == 0)
                allDone_.notify_all();
        }
    }
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
    // A worker fatal is deferred (FatalThrowsGuard) and re-raised here
    // on the calling thread — but only after the pool has left scope
    // and joined every worker, so the exit cannot race them.
    std::string workerFatal;
    bool sawWorkerFatal = false;
    {
        SweepPool pool(threads);
        for (const auto &job : jobs)
            pool.submit(job);
        try {
            pool.wait();
        } catch (const FatalError &e) {
            sawWorkerFatal = true;
            workerFatal = e.what();
        }
    }
    if (sawWorkerFatal)
        fatal("%s", workerFatal.c_str());
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
    const auto start = std::chrono::steady_clock::now();

    std::vector<std::vector<RunResult>> results(configs.size());
    for (auto &row : results)
        row.resize(benchmarks.size());

    // The sweep runs as up to three runJobs phases on the same workers,
    // each a barrier before the next: store-key trace hashes, warm
    // captures, then the cells. Every job writes only its own pre-sized
    // slot, so no result depends on which worker ran which job.

    // Phase 1, with a result store: hash each distinct (benchmark,
    // numInsts) workload stream on the pool. Then, on the main thread
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
        const auto captureStart = std::chrono::steady_clock::now();
        runJobs(captures, jobs);
        captureSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - captureStart)
                             .count();
    }

    // Phase 3, the cells, longest first (LPT): the cells with the most
    // simulated instructions go first so the pool tail does not idle
    // behind one long run picked up last. Ties keep the c-major order,
    // and every result still lands in its pre-sized slot, so the output
    // tables are unaffected by the ordering.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < cells; ++i)
        if (!isCached(i))
            order.push_back(i);
    const auto insts = [&](std::size_t cell) {
        return configs[cell / benchmarks.size()].second.numInsts;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t l, std::size_t r) {
                         return insts(l) > insts(r);
                     });
    std::vector<std::function<void()>> work;
    for (const std::size_t cell : order) {
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

    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    SweepStats stats;
    stats.runs = cells - hits;  // cells actually simulated
    stats.jobs = jobs;
    stats.wallSeconds = wall.count();
    printSweepThroughput(stats);
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

std::vector<RunResult>
runSuiteParallel(const std::vector<std::string> &benchmarks,
                 const RunConfig &config, const std::string &configLabel,
                 unsigned jobs, const SweepStoreConfig &store)
{
    std::vector<LabeledConfig> configs = {{configLabel, config}};
    return std::move(runSweep(benchmarks, configs, jobs, store).front());
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
