#include "harness/sweep_pool.hh"

// fdp-analyze: suppress-file(wall-clock, steady_clock feeds the
// stderr throughput report only; simulated results never read it)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>

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

/** Process-wide store attachment (set once at startup, before any
 *  sweep runs, so there is no cross-thread mutation to order). */
SweepStoreConfig g_sweepStore;

} // namespace

void
setSweepStore(const SweepStoreConfig &config)
{
    if (config.resume && config.dir.empty())
        fatal("--resume needs --store DIR (nothing to resume from)");
    g_sweepStore = config;
}

const SweepStoreConfig &
sweepStore()
{
    return g_sweepStore;
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
    if (threads == 1) {
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
         const std::vector<LabeledConfig> &configs, unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultSweepJobs();
    const std::size_t cells = benchmarks.size() * configs.size();
    // Clamp before branching so the throughput line reports the worker
    // count that actually ran: never more than one per cell, and the
    // cells <= 1 fallback below is single-threaded by construction.
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

    // Result-store attachment: resolve every cell's key up front (the
    // workload trace hash is memoized per (benchmark, numInsts) pair),
    // and serve resumable cells straight into their slots. All store
    // lookups happen here on the main thread; workers only insert, and
    // each insert touches its own entry file.
    const SweepStoreConfig storeCfg = sweepStore();
    std::unique_ptr<ResultStore> store;
    std::vector<StoreKey> keys;
    std::vector<char> cached;
    std::size_t hits = 0;
    if (storeCfg.enabled()) {
        store = std::make_unique<ResultStore>(storeCfg.dir);
        keys.resize(cells);
        cached.assign(cells, 0);
        std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
            traceHashes;
        for (std::size_t cell = 0; cell < cells; ++cell) {
            const std::size_t c = cell / benchmarks.size();
            const std::size_t b = cell % benchmarks.size();
            const auto hk = std::make_pair(benchmarks[b],
                                           configs[c].second.numInsts);
            auto it = traceHashes.find(hk);
            if (it == traceHashes.end())
                it = traceHashes
                         .emplace(hk,
                                  workloadTraceHash(hk.first, hk.second))
                         .first;
            keys[cell] = makeStoreKey(benchmarks[b], configs[c].second,
                                      configs[c].first, it->second);
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

    // Warm-fork attachment: cells with a warm-up phase share one
    // neutral warm snapshot per (benchmark, geometry, warmup) group —
    // captured here on the main thread (or served from the store's
    // snaps/ subdirectory), then fork-restored by each cell. Restoring
    // is bit-identical to warming in place (DESIGN.md Section 16), so
    // results do not depend on whether forking is active; FDP_NO_WARM_FORK=1
    // forces every cell down the cold in-place path.
    std::vector<std::shared_ptr<const SnapshotImage>> cellImage(cells);
    std::size_t snapGroups = 0, snapHits = 0;
    const char *noForkEnv = std::getenv("FDP_NO_WARM_FORK");
    if (noForkEnv == nullptr || *noForkEnv == '\0' ||
        std::strcmp(noForkEnv, "0") == 0) {
        std::map<std::string, std::shared_ptr<const SnapshotImage>> images;
        std::map<std::pair<std::string, std::uint64_t>, std::uint64_t>
            warmHashes;
        for (std::size_t cell = 0; cell < cells; ++cell) {
            if (isCached(cell))
                continue;
            const std::size_t c = cell / benchmarks.size();
            const std::size_t b = cell % benchmarks.size();
            const RunConfig &cfg = configs[c].second;
            if (cfg.warmupInsts == 0)
                continue;
            const auto hk =
                std::make_pair(benchmarks[b], cfg.warmupInsts);
            auto ht = warmHashes.find(hk);
            if (ht == warmHashes.end())
                ht = warmHashes
                         .emplace(hk,
                                  workloadTraceHash(hk.first, hk.second))
                         .first;
            const std::string key =
                warmSnapshotKey(benchmarks[b], cfg, ht->second);
            auto it = images.find(key);
            if (it == images.end()) {
                bool hit = false;
                it = images
                         .emplace(key, std::make_shared<SnapshotImage>(
                                           loadOrCaptureWarmSnapshot(
                                               storeCfg.dir, benchmarks[b],
                                               cfg, ht->second, &hit)))
                         .first;
                ++snapGroups;
                if (hit)
                    ++snapHits;
            }
            cellImage[cell] = it->second;
        }
    }
    // LPT scheduling: run the longest cells (most simulated
    // instructions) first so the pool tail does not idle behind one long
    // run picked up last. Ties keep the c-major order, and every result
    // still lands in its pre-sized slot, so the output tables are
    // unaffected by the ordering.
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
            results[c][b] =
                cellImage[cell]
                    ? runBenchmarkFromSnapshot(*cellImage[cell], cfg, label)
                    : runBenchmark(benchmarks[b], cfg, label);
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
    if (snapGroups > 0)
        std::cerr << "sweep-snap: groups=" << snapGroups
                  << " store-hits=" << snapHits
                  << " captured=" << (snapGroups - snapHits) << '\n';
    return results;
}

std::vector<RunResult>
runSuiteParallel(const std::vector<std::string> &benchmarks,
                 const RunConfig &config, const std::string &configLabel,
                 unsigned jobs)
{
    std::vector<LabeledConfig> configs = {{configLabel, config}};
    return std::move(runSweep(benchmarks, configs, jobs).front());
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
    setSweepStore(args.store);
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
    auto results = runSweep(benchmarks, configs, args.jobs);
    writeSweepResults(args.out, source, benchmarks, labelsOf(configs),
                      results);
    return results;
}

} // namespace fdp
