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
 * prefetches sent, L2 misses) and, with --stats, each run's
 * aggressiveness-level and insertion-position distributions.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.hh"
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

/** A --policy choice: the named configuration it builds at --level. */
struct Policy
{
    const char *name;
    RunConfig (*make)(unsigned level);
};

const Policy kPolicies[] = {
    {"none", [](unsigned) { return RunConfig::noPrefetching(); }},
    {"static", [](unsigned l) { return RunConfig::staticLevelConfig(l); }},
    {"dyn-aggr",
     [](unsigned) { return RunConfig::dynamicAggressiveness(); }},
    {"dyn-ins", [](unsigned l) { return RunConfig::dynamicInsertion(l); }},
    {"fdp", [](unsigned) { return RunConfig::fullFdp(); }},
    {"accuracy-only", [](unsigned) { return RunConfig::accuracyOnlyFdp(); }},
};

/** Every --policy name, in table order, joined by " | ". */
std::string
policyNames()
{
    std::string names;
    for (const Policy &p : kPolicies)
        names += (names.empty() ? "" : " | ") + std::string(p.name);
    return names;
}

/** The kPolicies row named @p name; fatal listing the names if none. */
const Policy &
policyNamed(const char *name)
{
    for (const Policy &p : kPolicies)
        if (std::strcmp(p.name, name) == 0)
            return p;
    fatal("--policy wants %s (got `%s')", policyNames().c_str(), name);
}

/** Everything the command line sets, each value validated once. */
struct Cli
{
    std::vector<std::string> benches;
    const Policy *policy = &policyNamed("fdp");
    unsigned level = 5;
    PrefetcherSelection prefetcher;
    /** Machine, budget, and warm-up, set in place by their flags. */
    RunConfig knobs;
    bool controllerKnob = false;  // a controller-only flag was given
    bool stats = false;
    unsigned jobs = 0;  // 0 = defaultSweepJobs()
    std::string out, record, trace, saveSnap, loadSnap;
    const MixSpec *mix = nullptr;
    unsigned cores = 0;  // 0 = the mix's own count
    SweepStoreConfig store;
};

/** Position of @p value in @p choices; fatal naming @p flag if absent. */
std::size_t
choice(const char *flag, const char *value,
       std::initializer_list<const char *> choices)
{
    std::size_t i = 0;
    std::string known;
    for (const char *c : choices) {
        if (std::strcmp(c, value) == 0)
            return i;
        known += (i++ ? " | " : "") + std::string(c);
    }
    fatal("%s wants %s (got `%s')", flag, known.c_str(), value);
}

/** off | cap:<n> | weighted | cap:<n>+weighted, into @p ctrl. */
void
parseQos(const char *spec, DramCtrlParams &ctrl)
{
    const std::string s = spec;
    if (s == "off")
        return;
    const std::size_t plus = s.find('+');
    for (const std::string &part :
         {s.substr(0, plus),
          plus == std::string::npos ? std::string() : s.substr(plus + 1)}) {
        if (part.empty())
            continue;
        if (part == "weighted")
            ctrl.qosWeighted = true;
        else if (part.rfind("cap:", 0) == 0)
            ctrl.qosInFlightCap = static_cast<unsigned>(
                parseCountArg("--qos cap", part.c_str() + 4, 4096));
        else
            fatal("--qos wants off, cap:<n>, weighted, or "
                  "cap:<n>+weighted (got `%s')", spec);
    }
}

/** Print @p lines, one per line, and exit 0 (the --list flags). */
[[noreturn]] void
listAndExit(const std::vector<std::string> &lines)
{
    for (const std::string &l : lines)
        std::printf("%s\n", l.c_str());
    std::exit(0);
}

std::vector<Flag>
flagTable(Cli &o)
{
    MachineParams &m = o.knobs.machine;
    DramCtrlParams &ctrl = m.dramCtrl;
    return {
        {"--bench", "NAME",
         "benchmark stand-in (repeatable; default swim)",
         [&o](const char *v) {
             benchmarkParams(v);
             o.benches.emplace_back(v);
         }},
        {"--all", "", "every benchmark stand-in",
         [&o](const char *) { o.benches = allBenchmarks(); }},
        {"--list", "", "list the benchmarks and exit",
         [](const char *) { listAndExit(allBenchmarks()); }},
        {"--prefetcher", "KIND",
         "none | stream | ghb | stride | vldp | dspatch |\n"
         "nextline | manager (default stream; manager runs the\n"
         "POWER7-style explore/exploit manager over the zoo)",
         [&o](const char *v) {
             o.prefetcher = prefetcherSelectionFromName(v);
         }},
        {"--list-prefetchers", "", "list the --prefetcher selections and exit",
         [](const char *) { listAndExit(knownPrefetcherNames()); }},
        {"--policy", "P", policyNames() + "\n(default fdp)",
         [&o](const char *v) { o.policy = &policyNamed(v); }},
        {"--level", "N", "static aggressiveness 1..5 (default 5)",
         [&o](const char *v) {
             o.level = static_cast<unsigned>(parseCountArg("--level", v, 5));
         }},
        instsFlag(o.knobs.numInsts),
        {"--l2-kb", "N", "L2 size in KB (default 1024)",
         [&m](const char *v) {
             m.l2.sizeBytes = parseCountArg("--l2-kb", v) * 1024;
         }},
        {"--mem-latency", "N", "unloaded DRAM latency in cycles (default 500)",
         [&m](const char *v) {
             const double bus = m.dram.busBytesPerCycle;
             m.dram = DramParams::withUnloadedLatency(
                 parseCountArg("--mem-latency", v));
             m.dram.busBytesPerCycle = bus;
         }},
        {"--bus-gbps", "X", "memory bus bandwidth in GB/s (default 4.5)",
         [&m](const char *v) {
             // 4 GHz core.
             m.dram.busBytesPerCycle = parseDecimalArg("--bus-gbps", v) / 4.0;
         }},
        {"--pcache-kb", "N", "add a separate prefetch cache of N KB",
         [&m](const char *v) {
             const std::size_t kb = parseCountArg("--pcache-kb", v);
             m.prefetchCache.enabled = true;
             m.prefetchCache.sizeBytes = kb * 1024;
             m.prefetchCache.assoc = kb <= 2 ? 0 : 16;
         }},
        {"--dram", "D",
         "flat | controller: the flat Table 3 bus model (default)\n"
         "or the FR-FCFS multi-channel controller (DESIGN.md 18)",
         [&ctrl](const char *v) {
             ctrl.kind = choice("--dram", v, {"flat", "controller"}) == 1
                             ? DramKind::Controller
                             : DramKind::Flat;
         }},
        {"--channels", "N",
         "controller channels, a power of two (default 2;\n"
         "needs --dram controller)",
         [&o, &ctrl](const char *v) {
             ctrl.channels =
                 static_cast<unsigned>(parseCountArg("--channels", v, 64));
             o.controllerKnob = true;
         }},
        {"--row-policy", "R",
         "open | closed | adaptive row-buffer policy (default\n"
         "open; needs --dram controller)",
         [&o, &ctrl](const char *v) {
             const RowPolicy policies[] = {RowPolicy::Open, RowPolicy::Closed,
                                           RowPolicy::Adaptive};
             ctrl.rowPolicy = policies[choice("--row-policy", v,
                                              {"open", "closed", "adaptive"})];
             o.controllerKnob = true;
         }},
        {"--qos", "Q",
         "off | cap:<n> | weighted | cap:<n>+weighted per-core\n"
         "bandwidth QoS (default off; needs --dram controller)",
         [&o, &ctrl](const char *v) {
             parseQos(v, ctrl);
             o.controllerKnob = true;
         }},
        {"--fdp-priority", "F",
         "on | off: accuracy-directed prefetch scheduling in the\n"
         "controller (default on; needs --dram controller)",
         [&o, &ctrl](const char *v) {
             ctrl.fdpPriority =
                 choice("--fdp-priority", v, {"on", "off"}) == 0;
             o.controllerKnob = true;
         }},
        jobsFlag(o.jobs),
        outFlag(o.out),
        {"--record", "PATH",
         "record the run's micro-op stream to PATH (fdptrace-v1;\n"
         "needs exactly one --bench)",
         [&o](const char *v) { o.record = v; }},
        {"--trace", "PATH",
         "replay a recorded trace instead of the live generator\n"
         "(replaces --bench)",
         [&o](const char *v) { o.trace = v; }},
        {"--mix", "NAME",
         "co-run a named multi-core workload mix (N cores share\n"
         "L2 + DRAM, per-core FDP; prints speedup tables)",
         [&o](const char *v) { o.mix = &mixByName(v); }},
        {"--cores", "N", "assert the --mix's core count",
         [&o](const char *v) {
             o.cores = static_cast<unsigned>(parseCountArg("--cores", v, 64));
         }},
        {"--list-mixes", "", "list the workload mixes and exit",
         [](const char *) {
             for (const MixSpec &mix : namedMixes()) {
                 std::string programs;
                 for (const MixEntry &e : mix.entries)
                     programs += (programs.empty() ? "" : " ") +
                                 e.displayName();
                 std::printf("%-12s %u cores: %s\n", mix.name.c_str(),
                             mix.numCores(), programs.c_str());
             }
             std::exit(0);
         }},
        storeFlag(o.store),
        resumeFlag(o.store),
        {"--warmup", "N",
         "run N unmeasured micro-ops first (sweeps share one\n"
         "warm-up per benchmark)",
         [&o](const char *v) {
             o.knobs.warmupInsts = parseCountArg("--warmup", v);
         }},
        {"--save-snap", "PATH",
         "warm up (needs --warmup and exactly one --bench), write\n"
         "an fdpsnap-v1 image, and exit",
         [&o](const char *v) { o.saveSnap = v; }},
        {"--load-snap", "PATH",
         "fork the measured run from a saved image (benchmark and\n"
         "warm-up come from the file)",
         [&o](const char *v) { o.loadSnap = v; }},
        {"--stats", "",
         "also print each run's aggressiveness-level and\n"
         "insertion-position distributions",
         [&o](const char *) { o.stats = true; }},
    };
}

/** The checks no single flag can make: which flags combine. */
void
checkCombinations(Cli &o)
{
    o.store.check();
    if (o.knobs.machine.dramCtrl.kind != DramKind::Controller &&
        o.controllerKnob)
        fatal("--channels/--row-policy/--qos/--fdp-priority configure "
              "the memory controller; give --dram controller");
    if (!o.saveSnap.empty()) {
        if (o.knobs.warmupInsts == 0)
            fatal("--save-snap captures a warmed machine; give "
                  "--warmup N");
        if (o.benches.size() != 1)
            fatal("--save-snap captures one benchmark's warm-up; give "
                  "exactly one --bench (got %zu)", o.benches.size());
        if (!o.trace.empty() || !o.record.empty() || o.mix ||
            o.store.enabled() || !o.loadSnap.empty())
            fatal("--save-snap cannot be combined with --trace/--record/"
                  "--mix/--store/--load-snap");
    }
    if (!o.loadSnap.empty()) {
        if (!o.benches.empty())
            fatal("--load-snap reads the benchmark from the image; drop "
                  "--bench/--all");
        if (o.knobs.warmupInsts != 0)
            fatal("--load-snap reads the warm-up length from the image; "
                  "drop --warmup");
        if (!o.trace.empty() || !o.record.empty() || o.mix ||
            o.store.enabled())
            fatal("--load-snap cannot be combined with --trace/--record/"
                  "--mix/--store");
    }
    if (o.mix) {
        if (!o.benches.empty())
            fatal("--mix defines the per-core programs; drop "
                  "--bench/--all");
        if (!o.trace.empty() || !o.record.empty())
            fatal("--mix cannot be combined with --record/--trace");
        if (o.store.enabled())
            fatal("--store keys on single-core benchmark cells; it "
                  "cannot cache --mix co-runs");
        return;
    }
    if (o.store.enabled() && (!o.trace.empty() || !o.record.empty()))
        fatal("--store caches generator-workload runs; it cannot be "
              "combined with --record/--trace");
    if (o.cores != 0)
        fatal("--cores needs --mix (see --list-mixes)");
    if (!o.trace.empty() && !o.benches.empty())
        fatal("--trace replays a recorded stream; drop --bench/--all");
    if (!o.trace.empty() && !o.record.empty())
        fatal("--record and --trace are mutually exclusive");
    if (o.benches.empty() && o.trace.empty() && o.loadSnap.empty())
        o.benches.push_back("swim");
    if (!o.record.empty() && o.benches.size() != 1)
        fatal("--record captures one run; give exactly one --bench "
              "(got %zu)", o.benches.size());
}

/** The --policy/--level named configuration, with the knobs applied. */
RunConfig
buildConfig(const Cli &o)
{
    RunConfig c = o.policy->make(o.level);
    if (o.policy != &policyNamed("none")) {
        c.prefetcher = o.prefetcher.kind;
        c.manager = o.prefetcher.manager;
    }
    c.machine = o.knobs.machine;
    c.numInsts = o.knobs.numInsts;
    c.warmupInsts = o.knobs.warmupInsts;
    // Keep the paper's "half the L2 blocks" interval rule across sizes.
    c.fdp.intervalEvictions = c.machine.l2.sizeBytes / kBlockBytes / 2;
    return c;
}

/** Multi-core co-run of a named mix under the one requested policy. */
int
runMixMain(const Cli &o, const RunConfig &config)
{
    const MixSpec &spec = *o.mix;
    if (o.cores != 0 && o.cores != spec.numCores())
        fatal("--cores %u disagrees with mix %s, which has %u cores",
              o.cores, spec.name.c_str(), spec.numCores());

    McLabeledConfig cfg;
    cfg.label = o.policy->name;
    cfg.config.base = config;
    cfg.config.numCores = spec.numCores();
    const std::vector<McRunResult> results =
        runMixSweep(spec, {cfg}, o.jobs);

    if (!o.out.empty()) {
        ResultsJson out("fdp_sim");
        for (const McRunResult &r : results)
            addMcRunResult(out, r);
        out.writeFile(o.out);
    }
    buildMixSummaryTable(results).print();
    buildMixCoreTable(results).print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli o;
    o.knobs.numInsts = 8'000'000;
    o.knobs.machine.dram = DramParams::withUnloadedLatency(500);
    parseFlags(argc, argv, flagTable(o));
    checkCombinations(o);
    const RunConfig config = buildConfig(o);
    if (o.mix)
        return runMixMain(o, config);

    const std::string label = o.policy->name;
    if (!o.saveSnap.empty()) {
        saveWarmSnapshot(o.benches.front(), config, o.saveSnap);
        std::printf("fdp_sim: wrote warm snapshot of %s (%llu warm-up "
                    "micro-ops) to %s\n", o.benches.front().c_str(),
                    static_cast<unsigned long long>(config.warmupInsts),
                    o.saveSnap.c_str());
        return 0;
    }

    Table t("fdp_sim: " + label + " policy, " +
            std::to_string(config.numInsts) + " micro-ops");
    t.setHeader({"benchmark", "IPC", "BPKI", "accuracy", "lateness",
                 "pollution", "pref sent", "L2 misses"});

    // All three frontends print through the identical table/JSON path,
    // so a replayed run's stdout is bit-identical to the live one.
    std::vector<RunResult> results;
    if (!o.loadSnap.empty()) {
        const SnapshotImage image = readSnapshotFile(o.loadSnap);
        RunConfig forked = config;
        forked.warmupInsts = image.warmupInsts;
        results.push_back(runBenchmarkFromSnapshot(image, forked, label));
    } else if (!o.trace.empty())
        results.push_back(replayTrace(o.trace, config, label));
    else if (!o.record.empty())
        results.push_back(
            recordBenchmark(o.benches.front(), config, label, o.record));
    else
        results = std::move(
            runSweep(o.benches, {{label, config}}, o.jobs, o.store).front());
    if (!o.out.empty()) {
        ResultsJson out("fdp_sim");
        for (const RunResult &r : results)
            out.addRunResult(r.benchmark + "/" + label, r);
        out.writeFile(o.out);
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

    if (o.stats) {
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
