/**
 * @file
 * fdp_sim - command-line driver for the FDP simulator.
 *
 * Run any benchmark stand-in (or all of them) under any prefetcher and
 * throttling policy, with the machine knobs exposed:
 *
 *   fdp_sim --bench art --policy fdp --insts 8000000
 *   fdp_sim --bench swim --prefetcher ghb --policy static --level 5
 *   fdp_sim --all --policy fdp --l2-kb 512 --mem-latency 750 --stats
 *
 * Prints one row per run (IPC, BPKI, accuracy, lateness, pollution,
 * level/insertion distributions) and optionally the full stats dump.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "harness/warm_fork.hh"
#include "mc/mix_runner.hh"
#include "sim/logging.hh"
#include "workload/spec_suite.hh"

namespace
{

using namespace fdp;

struct Options
{
    std::vector<std::string> benches;
    std::string prefetcher = "stream";  // knownPrefetcherNames()
    std::string manager = "off";        // off | explore
    std::string policy = "fdp";  // none | static | dyn-aggr | dyn-ins |
                                 // fdp | accuracy-only
    unsigned level = 5;
    std::uint64_t insts = 8'000'000;
    std::size_t l2KB = 1024;
    Cycle memLatency = 500;
    double busGBps = 4.5;
    std::size_t pcacheKB = 0;  // 0 = off
    bool fullStats = false;
    unsigned jobs = 0;  // 0 = defaultSweepJobs()
    std::string outPath;  // empty = no results file
    std::string recordPath;  // --record: capture the run's micro-ops
    std::string tracePath;   // --trace: replay instead of generating
    std::string mix;         // --mix: multi-core co-run of a named mix
    unsigned cores = 0;      // --cores: expected core count (0 = mix's)
    SweepStoreConfig store;  // --store DIR / --resume
    std::uint64_t warmup = 0;  // --warmup: unmeasured warm-up micro-ops
    std::string saveSnapPath;  // --save-snap: warm up, capture, exit
    std::string loadSnapPath;  // --load-snap: fork the run from an image
    std::string dram = "flat";  // --dram: flat | controller
    unsigned channels = 0;      // --channels (0 = controller default)
    std::string rowPolicy;      // --row-policy: open | closed | adaptive
    std::string qos;            // --qos: off | cap:<n> | weighted | both
    std::string fdpPriority;    // --fdp-priority: on | off
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: fdp_sim [options]\n"
        "  --bench NAME        benchmark stand-in (repeatable); "
        "--all for every one\n"
        "  --list              list available benchmarks and exit\n"
        "  --prefetcher KIND   none | stream | ghb | stride | vldp |\n"
        "                      dspatch | nextline | manager "
        "(default stream)\n"
        "  --manager M         off | explore: wrap the run in the\n"
        "                      adaptive prefetcher manager (explore =\n"
        "                      POWER7-style explore/exploit over the\n"
        "                      default zoo; `--prefetcher manager' is\n"
        "                      shorthand for explore)\n"
        "  --list-prefetchers  list prefetcher selections and exit\n"
        "  --policy P          none | static | dyn-aggr | dyn-ins | fdp |"
        " accuracy-only (default fdp)\n"
        "  --level N           static aggressiveness 1..5 (default 5)\n"
        "  --insts N           micro-ops to retire (default 8000000)\n"
        "  --l2-kb N           L2 size in KB (default 1024)\n"
        "  --mem-latency N     unloaded DRAM latency in cycles "
        "(default 500)\n"
        "  --bus-gbps X        memory bus bandwidth (default 4.5)\n"
        "  --pcache-kb N       add a separate prefetch cache of N KB\n"
        "  --dram D            flat | controller: flat Table 3 bus model\n"
        "                      (default) or the FR-FCFS multi-channel\n"
        "                      memory controller (DESIGN.md section 18)\n"
        "  --channels N        controller channel count, a power of two\n"
        "                      (default 2; needs --dram controller)\n"
        "  --row-policy R      open | closed | adaptive row-buffer\n"
        "                      policy (default open; needs --dram\n"
        "                      controller)\n"
        "  --qos Q             off | cap:<n> | weighted | cap:<n>+weighted\n"
        "                      per-core bandwidth QoS (default off;\n"
        "                      needs --dram controller)\n"
        "  --fdp-priority F    on | off: accuracy-directed prefetch\n"
        "                      scheduling in the controller (default on;\n"
        "                      needs --dram controller)\n"
        "  --jobs N            worker threads for multi-benchmark runs\n"
        "                      (default: FDP_JOBS or all hardware "
        "threads)\n"
        "  --out PATH          write per-run metrics to PATH as "
        "fdp-results-v1 JSON\n"
        "  --record PATH       record the run's micro-op stream to PATH\n"
        "                      (fdptrace-v1; needs exactly one --bench)\n"
        "  --trace PATH        replay a recorded trace instead of the\n"
        "                      live generator (replaces --bench)\n"
        "  --mix NAME          co-run a named multi-core workload mix\n"
        "                      (N cores share L2 + DRAM, per-core FDP;\n"
        "                      prints weighted/harmonic speedup tables)\n"
        "  --cores N           assert the mix's core count (optional\n"
        "                      with --mix, which defines N)\n"
        "  --list-mixes        list available workload mixes and exit\n"
        "  --store DIR         persist per-run results in a result store\n"
        "  --resume            serve runs already in --store DIR from it\n"
        "                      (stdout stays bit-identical to a cold run)\n"
        "  --warmup N          run N unmeasured micro-ops first (stats\n"
        "                      reset at the measurement boundary; sweeps\n"
        "                      share one warm-up per benchmark)\n"
        "  --save-snap PATH    warm up (needs --warmup and exactly one\n"
        "                      --bench), write an fdpsnap-v1 image, exit\n"
        "  --load-snap PATH    fork the measured run from a saved image\n"
        "                      (benchmark and warm-up come from the file)\n"
        "  --stats             dump the full statistics groups\n");
    std::exit(1);
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (!std::strcmp(a, "--bench")) {
            o.benches.emplace_back(need(i));
        } else if (!std::strcmp(a, "--all")) {
            o.benches = allBenchmarks();
        } else if (!std::strcmp(a, "--list")) {
            for (const auto &b : allBenchmarks())
                std::printf("%s\n", b.c_str());
            std::exit(0);
        } else if (!std::strcmp(a, "--prefetcher")) {
            // Validated on the main thread: an unknown name is a user
            // error listing the valid selections, never a worker fatal.
            o.prefetcher = need(i);
            prefetcherSelectionFromName(o.prefetcher);
        } else if (!std::strcmp(a, "--manager")) {
            o.manager = need(i);
            if (o.manager != "off" && o.manager != "explore")
                fatal("--manager wants off or explore (got `%s')",
                      o.manager.c_str());
        } else if (!std::strcmp(a, "--list-prefetchers")) {
            for (const auto &p : knownPrefetcherNames())
                std::printf("%s\n", p.c_str());
            std::exit(0);
        } else if (!std::strcmp(a, "--policy")) {
            o.policy = need(i);
        } else if (!std::strcmp(a, "--level")) {
            o.level = static_cast<unsigned>(
                parseCountArg("--level", need(i), 5));
        } else if (!std::strcmp(a, "--insts")) {
            o.insts = parseCountArg("--insts", need(i));
        } else if (!std::strcmp(a, "--l2-kb")) {
            o.l2KB = parseCountArg("--l2-kb", need(i));
        } else if (!std::strcmp(a, "--mem-latency")) {
            o.memLatency = parseCountArg("--mem-latency", need(i));
        } else if (!std::strcmp(a, "--bus-gbps")) {
            o.busGBps = parseDecimalArg("--bus-gbps", need(i));
        } else if (!std::strcmp(a, "--pcache-kb")) {
            o.pcacheKB = parseCountArg("--pcache-kb", need(i));
        } else if (!std::strcmp(a, "--dram")) {
            o.dram = need(i);
            if (o.dram != "flat" && o.dram != "controller")
                fatal("--dram wants flat or controller (got `%s')",
                      o.dram.c_str());
        } else if (!std::strcmp(a, "--channels")) {
            o.channels = static_cast<unsigned>(
                parseCountArg("--channels", need(i), 64));
        } else if (!std::strcmp(a, "--row-policy")) {
            o.rowPolicy = need(i);
            if (o.rowPolicy != "open" && o.rowPolicy != "closed" &&
                o.rowPolicy != "adaptive")
                fatal("--row-policy wants open, closed, or adaptive "
                      "(got `%s')", o.rowPolicy.c_str());
        } else if (!std::strcmp(a, "--qos")) {
            o.qos = need(i);
        } else if (!std::strcmp(a, "--fdp-priority")) {
            o.fdpPriority = need(i);
            if (o.fdpPriority != "on" && o.fdpPriority != "off")
                fatal("--fdp-priority wants on or off (got `%s')",
                      o.fdpPriority.c_str());
        } else if (!std::strcmp(a, "--jobs")) {
            o.jobs = static_cast<unsigned>(
                parseCountArg("--jobs", need(i), 4096));
        } else if (!std::strcmp(a, "--out")) {
            o.outPath = need(i);
        } else if (!std::strcmp(a, "--record")) {
            o.recordPath = need(i);
        } else if (!std::strcmp(a, "--trace")) {
            o.tracePath = need(i);
        } else if (!std::strcmp(a, "--mix")) {
            o.mix = need(i);
        } else if (!std::strcmp(a, "--cores")) {
            o.cores = static_cast<unsigned>(
                parseCountArg("--cores", need(i), 64));
        } else if (!std::strcmp(a, "--list-mixes")) {
            for (const MixSpec &m : namedMixes()) {
                std::string programs;
                for (const MixEntry &e : m.entries)
                    programs += (programs.empty() ? "" : " ") +
                                e.displayName();
                std::printf("%-12s %u cores: %s\n", m.name.c_str(),
                            m.numCores(), programs.c_str());
            }
            std::exit(0);
        } else if (!std::strcmp(a, "--stats")) {
            o.fullStats = true;
        } else if (!std::strcmp(a, "--store")) {
            o.store.dir = need(i);
        } else if (!std::strcmp(a, "--resume")) {
            o.store.resume = true;
        } else if (!std::strcmp(a, "--warmup")) {
            o.warmup = parseCountArg("--warmup", need(i));
        } else if (!std::strcmp(a, "--save-snap")) {
            o.saveSnapPath = need(i);
        } else if (!std::strcmp(a, "--load-snap")) {
            o.loadSnapPath = need(i);
        } else {
            usage();
        }
    }
    if (o.store.resume && o.store.dir.empty())
        fatal("--resume needs --store DIR (nothing to resume from)");
    if (o.dram != "controller" &&
        (o.channels != 0 || !o.rowPolicy.empty() || !o.qos.empty() ||
         !o.fdpPriority.empty()))
        fatal("--channels/--row-policy/--qos/--fdp-priority configure "
              "the memory controller; give --dram controller");
    if (!o.saveSnapPath.empty()) {
        if (o.warmup == 0)
            fatal("--save-snap captures a warmed machine; give "
                  "--warmup N");
        if (o.benches.size() != 1)
            fatal("--save-snap captures one benchmark's warm-up; give "
                  "exactly one --bench (got %zu)", o.benches.size());
        if (!o.tracePath.empty() || !o.recordPath.empty() ||
            !o.mix.empty() || o.store.enabled() ||
            !o.loadSnapPath.empty())
            fatal("--save-snap cannot be combined with --trace/--record/"
                  "--mix/--store/--load-snap");
    }
    if (!o.loadSnapPath.empty()) {
        if (!o.benches.empty())
            fatal("--load-snap reads the benchmark from the image; drop "
                  "--bench/--all");
        if (o.warmup != 0)
            fatal("--load-snap reads the warm-up length from the image; "
                  "drop --warmup");
        if (!o.tracePath.empty() || !o.recordPath.empty() ||
            !o.mix.empty() || o.store.enabled())
            fatal("--load-snap cannot be combined with --trace/--record/"
                  "--mix/--store");
    }
    if (!o.mix.empty()) {
        if (o.warmup != 0)
            fatal("--warmup applies to single-core runs; --mix co-runs "
                  "do not support it yet");
        if (!o.benches.empty())
            fatal("--mix defines the per-core programs; drop "
                  "--bench/--all");
        if (!o.tracePath.empty() || !o.recordPath.empty())
            fatal("--mix cannot be combined with --record/--trace");
        if (o.store.enabled())
            fatal("--store keys on single-core benchmark cells; it "
                  "cannot cache --mix co-runs");
        return o;
    }
    if (o.store.enabled() &&
        (!o.tracePath.empty() || !o.recordPath.empty()))
        fatal("--store caches generator-workload runs; it cannot be "
              "combined with --record/--trace");
    if (o.cores != 0)
        fatal("--cores needs --mix (see --list-mixes)");
    if (!o.tracePath.empty() && !o.benches.empty())
        fatal("--trace replays a recorded stream; drop --bench/--all");
    if (!o.tracePath.empty() && !o.recordPath.empty())
        fatal("--record and --trace are mutually exclusive");
    if (o.benches.empty() && o.tracePath.empty() &&
        o.loadSnapPath.empty())
        o.benches.push_back("swim");
    if (!o.recordPath.empty() && o.benches.size() != 1)
        fatal("--record captures one run; give exactly one --bench "
              "(got %zu)", o.benches.size());
    return o;
}

RunConfig
buildConfig(const Options &o)
{
    RunConfig c;
    if (o.policy == "none")
        c = RunConfig::noPrefetching();
    else if (o.policy == "static")
        c = RunConfig::staticLevelConfig(o.level);
    else if (o.policy == "dyn-aggr")
        c = RunConfig::dynamicAggressiveness();
    else if (o.policy == "dyn-ins")
        c = RunConfig::dynamicInsertion(o.level);
    else if (o.policy == "fdp")
        c = RunConfig::fullFdp();
    else if (o.policy == "accuracy-only")
        c = RunConfig::accuracyOnlyFdp();
    else
        usage();

    if (o.policy != "none") {
        c = applyPrefetcherSelection(c, o.prefetcher);
        if (o.manager == "explore")
            c.manager = ManagerKind::Explore;
    }
    c.numInsts = o.insts;
    c.machine.l2.sizeBytes = o.l2KB * 1024;
    c.machine.dram = DramParams::withUnloadedLatency(o.memLatency);
    c.machine.dram.busBytesPerCycle = o.busGBps / 4.0;  // 4 GHz core
    if (o.dram == "controller") {
        c.machine.dramCtrl.kind = DramKind::Controller;
        if (o.channels != 0)
            c.machine.dramCtrl.channels = o.channels;
        if (o.rowPolicy == "closed")
            c.machine.dramCtrl.rowPolicy = RowPolicy::Closed;
        else if (o.rowPolicy == "adaptive")
            c.machine.dramCtrl.rowPolicy = RowPolicy::Adaptive;
        if (o.fdpPriority == "off")
            c.machine.dramCtrl.fdpPriority = false;
        if (!o.qos.empty() && o.qos != "off") {
            // off | cap:<n> | weighted | cap:<n>+weighted
            std::string spec = o.qos;
            const std::size_t plus = spec.find('+');
            for (const std::string part :
                 {spec.substr(0, plus),
                  plus == std::string::npos ? std::string()
                                            : spec.substr(plus + 1)}) {
                if (part.empty())
                    continue;
                if (part == "weighted")
                    c.machine.dramCtrl.qosWeighted = true;
                else if (part.rfind("cap:", 0) == 0)
                    c.machine.dramCtrl.qosInFlightCap =
                        static_cast<unsigned>(parseCountArg(
                            "--qos cap", part.c_str() + 4, 4096));
                else
                    fatal("--qos wants off, cap:<n>, weighted, or "
                          "cap:<n>+weighted (got `%s')", o.qos.c_str());
            }
        }
    }
    if (o.pcacheKB > 0) {
        c.machine.prefetchCache.enabled = true;
        c.machine.prefetchCache.sizeBytes = o.pcacheKB * 1024;
        c.machine.prefetchCache.assoc = o.pcacheKB <= 2 ? 0 : 16;
    }
    // Keep the paper's "half the L2 blocks" interval rule across sizes.
    c.fdp.intervalEvictions = c.machine.l2.sizeBytes / kBlockBytes / 2;
    c.warmupInsts = o.warmup;
    return c;
}

/** Multi-core co-run of a named mix under the one requested policy. */
int
runMixMain(const Options &o, const RunConfig &config)
{
    const MixSpec &spec = mixByName(o.mix);
    if (o.cores != 0 && o.cores != spec.numCores())
        fatal("--cores %u disagrees with mix %s, which has %u cores",
              o.cores, spec.name.c_str(), spec.numCores());

    McLabeledConfig cfg;
    cfg.label = o.policy;
    cfg.config.base = config;
    cfg.config.numCores = spec.numCores();
    const std::vector<McRunResult> results =
        runMixSweep(spec, {cfg}, o.jobs);

    if (!o.outPath.empty()) {
        ResultsJson out("fdp_sim");
        for (const McRunResult &r : results)
            addMcRunResult(out, r);
        out.writeFile(o.outPath);
    }
    buildMixSummaryTable(results).print();
    buildMixCoreTable(results).print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    setSweepStore(o.store);
    const RunConfig config = buildConfig(o);
    if (!o.mix.empty())
        return runMixMain(o, config);

    if (!o.saveSnapPath.empty()) {
        saveWarmSnapshot(o.benches.front(), config, o.saveSnapPath);
        std::printf("fdp_sim: wrote warm snapshot of %s (%llu warm-up "
                    "micro-ops) to %s\n", o.benches.front().c_str(),
                    static_cast<unsigned long long>(o.warmup),
                    o.saveSnapPath.c_str());
        return 0;
    }

    Table t("fdp_sim: " + o.policy + " policy, " +
            std::to_string(o.insts) + " micro-ops");
    t.setHeader({"benchmark", "IPC", "BPKI", "accuracy", "lateness",
                 "pollution", "pref sent", "L2 misses"});

    // All three frontends print through the identical table/JSON path,
    // so a replayed run's stdout is bit-identical to the live one.
    std::vector<RunResult> results;
    if (!o.loadSnapPath.empty()) {
        const SnapshotImage image = readSnapshotFile(o.loadSnapPath);
        RunConfig forked = config;
        forked.warmupInsts = image.warmupInsts;
        results.push_back(
            runBenchmarkFromSnapshot(image, forked, o.policy));
    } else if (!o.tracePath.empty())
        results.push_back(replayTrace(o.tracePath, config, o.policy));
    else if (!o.recordPath.empty())
        results.push_back(recordBenchmark(o.benches.front(), config,
                                          o.policy, o.recordPath));
    else
        results = runSuiteParallel(o.benches, config, o.policy, o.jobs);
    if (!o.outPath.empty()) {
        ResultsJson out("fdp_sim");
        for (const RunResult &r : results)
            out.addRunResult(r.benchmark + "/" + o.policy, r);
        out.writeFile(o.outPath);
    }
    for (const RunResult &r : results) {
        t.addRow({r.benchmark, fmtDouble(r.ipc, 3), fmtDouble(r.bpki, 2),
                  fmtDouble(r.accuracy, 2), fmtDouble(r.lateness, 2),
                  fmtDouble(r.pollution, 3), std::to_string(r.prefSent),
                  std::to_string(r.l2Misses)});
    }
    if (results.size() > 1) {
        t.addRule();
        t.addRow({"gmean/amean",
                  fmtDouble(meanOf(results, metricIpc,
                                   MeanKind::Geometric), 3),
                  fmtDouble(meanOf(results, metricBpki,
                                   MeanKind::Arithmetic), 2),
                  "-", "-", "-", "-", "-"});
    }
    t.print();

    if (o.fullStats) {
        for (const auto &r : results) {
            std::printf("\n-- %s: level distribution (1..5):",
                        r.benchmark.c_str());
            for (double f : r.levelDist)
                std::printf(" %.2f", f);
            std::printf("\n-- %s: insertion distribution (LRU..MRU):",
                        r.benchmark.c_str());
            for (double f : r.insertDist)
                std::printf(" %.2f", f);
            std::printf("\n");
        }
    }
    return 0;
}
