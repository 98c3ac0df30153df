/**
 * @file
 * The golden simulated metrics behind the CI trajectory gate: the full
 * deterministic metric set of complete machines (core + caches + MSHRs
 * + DRAM + FDP) over three representative stand-ins — a streaming
 * winner (swim), the high-lateness pointer chaser (mcf), and a
 * pollution victim (art) — plus a trace replay, a warm-forked sweep
 * cell and a 2-core co-run.
 *
 * Emits one fdp-results-v1 JSON document on stdout. Every value is
 * simulated, so it is bit-identical across hosts, and the ci.sh
 * bench-diff stage diffs it exactly against the committed quick
 * baseline (`golden_metrics --insts 200000`). A drift there is a
 * simulation-semantics change: either a bug, or an intended change that
 * must come with a baseline regen plus a result_store.hh kSimCoreVersion
 * bump. Host speed is perfbench/'s to measure, never this binary's.
 */

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
    // (the bench-diff stage points this into the build tree).
    std::string trace_file = "golden_metrics.fdptrace";
    parseFlags(argc, argv,
               {instsFlag(insts), quickFlag(insts),
                {"--trace-file", "PATH",
                 "where the trace-replay section records its trace",
                 [&trace_file](const char *v) { trace_file = v; }}});

    RunConfig config = RunConfig::fullFdp();
    config.numInsts = insts;

    ResultsJson json("golden_metrics");
    for (const std::string b : {"swim", "mcf", "art"}) {
        const RunResult r = runBenchmark(b, config, "full-fdp");
        json.addRunResult("sim/" + b, r);
        json.add("sim/" + b + "/insts", "count",
                 static_cast<double>(r.insts), "higher");
        json.add("sim/" + b + "/l2_misses", "count",
                 static_cast<double>(r.l2Misses), "lower");
        json.add("sim/" + b + "/pref_sent", "count",
                 static_cast<double>(r.prefSent), "higher");
    }

    // Replay must reproduce the live run exactly; exporting its
    // metrics means the gate also notices a trace frontend divergence.
    recordBenchmark("swim", config, "record", trace_file);
    json.addRunResult("sim/trace_replay",
                      replayTrace(trace_file, config, "replay"));

    // Warm-fork sweep: the same (benchmark, config) grid with each cell
    // warmed in place (cold) vs forked from one shared warm image per
    // benchmark (runSweep's warm-fork path). The results must match bit
    // for bit — the determinism contract the golden tests pin,
    // re-checked here on every gate run.
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

        std::vector<std::vector<RunResult>> cold(sweepConfigs.size());
        for (std::size_t c = 0; c < sweepConfigs.size(); ++c)
            for (const auto &b : sweepBenches)
                cold[c].push_back(runBenchmark(b, sweepConfigs[c].second,
                                               sweepConfigs[c].first));
        const std::vector<std::vector<RunResult>> warm =
            runSweep(sweepBenches, sweepConfigs, 1);

        for (std::size_t c = 0; c < sweepConfigs.size(); ++c)
            for (std::size_t b = 0; b < sweepBenches.size(); ++b) {
                const std::string field =
                    firstDifferingField(cold[c][b], warm[c][b]);
                if (!field.empty())
                    fatal("warm-fork sweep diverged from cold warm-up "
                          "at %s/%s in %s", sweepBenches[b].c_str(),
                          sweepConfigs[c].first.c_str(), field.c_str());
            }
        json.addRunResult("sim/sweep_fdp_swim", warm[3][0]);
    }

    // A 2-core bandwidth-bound co-run (shared L2 + DRAM, per-core FDP).
    McRunConfig mc;
    mc.base = config;
    mc.numCores = 2;
    addMcRunResult(json, runMix(mixByName("mix2-stream"), mc, "full-fdp"));

    json.write(std::cout);
    return 0;
}
