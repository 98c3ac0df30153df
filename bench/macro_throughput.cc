/**
 * @file
 * End-to-end simulator throughput macro-benchmark: wall-clock insts/s
 * of complete machines (core + caches + MSHRs + DRAM + FDP) over three
 * representative stand-ins — a streaming winner (swim), the
 * high-lateness pointer chaser (mcf), and a pollution victim (art).
 *
 * Emits one fdp-results-v1 JSON document on stdout so tools/bench.sh
 * can merge it with the micro_structures numbers into BENCH_<rev>.json.
 * The simulated output is deterministic; only the wall-clock varies.
 *
 * Besides the timing rates, the document carries the full deterministic
 * metric set of every simulated run (sim/<bench>/... and the mc2
 * co-run) — these are bit-identical across hosts and feed the ci.sh
 * bench-diff trajectory gate, which diffs them exactly against the
 * committed quick baseline. A drift there is a simulation-semantics
 * change: either a bug, or an intended change that must come with a
 * baseline regen plus a result_store.hh kSimCoreVersion bump.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "mc/mc_machine.hh"
#include "mc/mix_runner.hh"
#include "mc/workload_mix.hh"
#include "sim/logging.hh"

using namespace fdp;

int
main(int argc, char **argv)
{
    std::uint64_t insts = 2'000'000;
    // Where the trace-replay section writes its temporary recording
    // (tools/bench.sh points this into the build tree).
    std::string trace_file = "macro_throughput.fdptrace";
    parseFlags(argc, argv,
               {instsFlag(insts), quickFlag(insts),
                {"--trace-file", "PATH",
                 "where the trace-replay section records its trace",
                 [&trace_file](const char *v) { trace_file = v; }}});
    const std::vector<std::string> benches = {"swim", "mcf", "art"};

    RunConfig config = RunConfig::fullFdp();
    config.numInsts = insts;

    // One untimed warm-up run so page faults and lazy init don't bill
    // the first timed benchmark.
    runBenchmark(benches.front(), config, "warmup");

    ResultsJson json("macro_throughput");
    std::uint64_t total_insts = 0;
    double total_wall = 0.0;
    double swim_rate = 0.0;
    for (const auto &b : benches) {
        const auto start = std::chrono::steady_clock::now();
        const RunResult r = runBenchmark(b, config, "full-fdp");
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        total_insts += r.insts;
        total_wall += wall.count();
        const double rate = static_cast<double>(r.insts) / wall.count();
        if (b == "swim")
            swim_rate = rate;
        json.add("macro/" + b + "/insts_per_s", "insts/s", rate, "higher");
        json.addRunResult("sim/" + b, r);
        json.add("sim/" + b + "/insts", "count",
                 static_cast<double>(r.insts), "higher");
        json.add("sim/" + b + "/l2_misses", "count",
                 static_cast<double>(r.l2Misses), "lower");
        json.add("sim/" + b + "/pref_sent", "count",
                 static_cast<double>(r.prefSent), "higher");
    }
    json.add("macro/insts_per_s", "insts/s",
             static_cast<double>(total_insts) / total_wall, "higher");

    // Trace-replay throughput: record swim untimed, then time the same
    // run driven from the file. The ratio against the live run is the
    // frontend cost delta (decode + I/O vs. generator arithmetic).
    recordBenchmark("swim", config, "record", trace_file);
    const auto replay_start = std::chrono::steady_clock::now();
    const RunResult replayed = replayTrace(trace_file, config, "replay");
    const std::chrono::duration<double> replay_wall =
        std::chrono::steady_clock::now() - replay_start;
    const double replay_rate =
        static_cast<double>(replayed.insts) / replay_wall.count();
    json.add("macro/trace_replay/insts_per_s", "insts/s", replay_rate,
             "higher");
    json.add("macro/trace_replay/speedup_vs_live", "x",
             replay_rate / swim_rate, "higher");
    // Replay must reproduce the live run exactly; exporting its
    // deterministic metrics means the bench-diff gate also notices a
    // trace frontend divergence.
    json.addRunResult("sim/trace_replay", replayed);

    // Warm-fork sweep speedup: the same (benchmark, config) grid with
    // each cell warmed in place (cold) vs forked from one shared warm
    // image per benchmark (runSweep's warm-fork path). Both sides run
    // serially so the ratio isolates warm-up sharing, and the measured
    // results must match bit for bit — the determinism contract the
    // golden tests pin, re-checked here on every bench run.
    {
        const std::vector<std::string> sweepBenches = {"swim", "art"};
        std::vector<LabeledConfig> sweepConfigs;
        for (unsigned lvl : {1u, 3u, 5u})
            sweepConfigs.emplace_back("static-" + std::to_string(lvl),
                                      RunConfig::staticLevelConfig(lvl));
        sweepConfigs.emplace_back("fdp", RunConfig::fullFdp());
        sweepConfigs.emplace_back("dyn-ins", RunConfig::dynamicInsertion(5));
        for (auto &lc : sweepConfigs) {
            lc.second.numInsts = insts / 4;
            lc.second.warmupInsts = insts;  // warm-up dominates each cell
        }

        const auto cold_start = std::chrono::steady_clock::now();
        std::vector<std::vector<RunResult>> cold(sweepConfigs.size());
        for (std::size_t c = 0; c < sweepConfigs.size(); ++c)
            for (const auto &b : sweepBenches)
                cold[c].push_back(runBenchmark(b, sweepConfigs[c].second,
                                               sweepConfigs[c].first));
        const std::chrono::duration<double> cold_wall =
            std::chrono::steady_clock::now() - cold_start;

        const auto warm_start = std::chrono::steady_clock::now();
        const std::vector<std::vector<RunResult>> warm =
            runSweep(sweepBenches, sweepConfigs, 1);
        const std::chrono::duration<double> warm_wall =
            std::chrono::steady_clock::now() - warm_start;

        for (std::size_t c = 0; c < sweepConfigs.size(); ++c)
            for (std::size_t b = 0; b < sweepBenches.size(); ++b) {
                const RunResult &x = cold[c][b];
                const RunResult &y = warm[c][b];
                if (x.insts != y.insts || x.cycles != y.cycles ||
                    x.busAccesses != y.busAccesses ||
                    x.l2Misses != y.l2Misses || x.prefSent != y.prefSent ||
                    x.prefUsed != y.prefUsed ||
                    x.accuracy != y.accuracy || x.lateness != y.lateness ||
                    x.pollution != y.pollution)
                    fatal("warm-fork sweep diverged from cold warm-up "
                          "at %s/%s", sweepBenches[b].c_str(),
                          sweepConfigs[c].first.c_str());
            }

        json.add("macro/sweep_cold/wall_s", "s", cold_wall.count(),
                 "lower");
        json.add("macro/sweep_warmfork/wall_s", "s", warm_wall.count(),
                 "lower");
        json.add("macro/sweep_warmfork/speedup", "x",
                 cold_wall.count() / warm_wall.count(), "higher");
        // Deterministic metrics of one forked cell, so the bench-diff
        // gate also notices a warm-fork semantics divergence.
        json.addRunResult("sim/sweep_fdp_swim", warm[3][0]);
    }

    // Multi-core throughput: a 2-core bandwidth-bound co-run (shared
    // L2 + DRAM, per-core FDP). Rate is total retired instructions
    // across both cores per wall-clock second, so it is directly
    // comparable with the single-core macro rates above.
    McRunConfig mc;
    mc.base = config;
    mc.numCores = 2;
    const auto mc_start = std::chrono::steady_clock::now();
    const McRunResult corun =
        runMix(mixByName("mix2-stream"), mc, "full-fdp");
    const std::chrono::duration<double> mc_wall =
        std::chrono::steady_clock::now() - mc_start;
    std::uint64_t mc_insts = 0;
    for (const auto &c : corun.cores)
        mc_insts += c.insts;
    json.add("macro/mc2/insts_per_s", "insts/s",
             static_cast<double>(mc_insts) / mc_wall.count(), "higher");
    addMcRunResult(json, corun);

    json.write(std::cout);
    return 0;
}
