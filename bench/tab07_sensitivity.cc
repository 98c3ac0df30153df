/**
 * @file
 * Paper Table 7: sensitivity of FDP to the L2 cache size (512KB..4MB at
 * 500-cycle memory latency) and to the memory latency (250..1000 cycles
 * at 1MB L2). Reports the change in mean IPC and BPKI of FDP relative
 * to the best-performing conventional configuration (Very Aggressive).
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "workload/spec_suite.hh"

using namespace fdp;

namespace
{

struct Point
{
    std::string label;
    MachineParams machine;
};

void
runPoint(const Point &pt, const SweepArgs &args, Table &t, ResultsJson &out)
{
    RunConfig va = RunConfig::staticLevelConfig(5);
    RunConfig fdp = RunConfig::fullFdp();
    va.machine = pt.machine;
    fdp.machine = pt.machine;
    va.numInsts = args.insts;
    fdp.numInsts = args.insts;
    // Scale the sampling interval with the cache size (T_interval is
    // half the L2 blocks, paper Section 3.2).
    fdp.fdp.intervalEvictions =
        pt.machine.l2.sizeBytes / kBlockBytes / 2;

    const auto &benches = memoryIntensiveBenchmarks();
    const std::vector<LabeledConfig> configs = {{"va", va},
                                                {"fdp", fdp}};
    const auto results = runSweep(benches, configs, args.jobs);
    const auto &rva = results[0];
    const auto &rfdp = results[1];
    for (std::size_t b = 0; b < benches.size(); ++b) {
        out.addRunResult(pt.label + "/" + benches[b] + "/va", rva[b]);
        out.addRunResult(pt.label + "/" + benches[b] + "/fdp", rfdp[b]);
    }
    t.addRow({pt.label,
              fmtPercent(meanDelta(rva, rfdp, metricIpc,
                                   MeanKind::Geometric)),
              fmtPercent(meanDelta(rva, rfdp, metricBpki,
                                   MeanKind::Arithmetic))});
}

} // namespace

int
main(int argc, char **argv)
{
    const SweepArgs args = parseSweepArgs(argc, argv, 4'000'000);
    ResultsJson out("tab07_sensitivity");

    Table t("Table 7: FDP vs Very Aggressive across L2 sizes and memory "
            "latencies (delta IPC / delta BPKI)");
    t.setHeader({"configuration", "delta IPC", "delta BPKI"});

    for (const std::size_t kb : {512u, 1024u, 2048u, 4096u}) {
        Point pt;
        pt.label = "L2 " + std::to_string(kb) + "KB, 500-cycle memory";
        pt.machine.l2.sizeBytes = kb * 1024;
        runPoint(pt, args, t, out);
    }
    for (const Cycle lat : {250u, 500u, 750u, 1000u}) {
        Point pt;
        pt.label = "1MB L2, " + std::to_string(lat) + "-cycle memory";
        pt.machine.dram = DramParams::withUnloadedLatency(lat);
        runPoint(pt, args, t, out);
    }
    if (!args.out.empty())
        out.writeFile(args.out);
    t.print();
    std::printf("\nPaper: FDP wins on IPC and saves significant bandwidth "
                "at every cache size and memory latency, with the IPC "
                "gain growing as memory latency grows.\n");
    return 0;
}
