/**
 * @file
 * Bandwidth-budget scenario: the paper's motivation section argues that
 * FDP's bandwidth-efficiency matters more as the per-core memory
 * bandwidth shrinks (chip multiprocessors sharing one memory channel).
 * This example sweeps the bus bandwidth from the baseline 4.5 GB/s down
 * to a quarter of it and compares Very Aggressive prefetching against
 * FDP on a mixed pair of workloads.
 *
 * Build & run:  ./build/examples/bandwidth_budget
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "sim/table.hh"
#include "workload/spec_suite.hh"

int
main()
{
    using namespace fdp;

    const std::vector<std::string> benches = {"swim", "facerec", "art",
                                              "gap"};
    const std::uint64_t insts = 4'000'000;

    Table t("FDP vs Very Aggressive under shrinking bus bandwidth");
    t.setHeader({"bus (GB/s)", "VA IPC", "FDP IPC", "delta IPC", "VA BPKI",
                 "FDP BPKI", "delta BPKI"});

    for (const double gbps : {4.5, 2.25, 1.125}) {
        RunConfig va = RunConfig::staticLevelConfig(5);
        RunConfig fdp = RunConfig::fullFdp();
        va.machine.dram.busBytesPerCycle = gbps / 4.0;  // 4 GHz core
        fdp.machine.dram.busBytesPerCycle = gbps / 4.0;
        va.numInsts = insts;
        fdp.numInsts = insts;

        const auto results = runSweep(benches, {{"va", va}, {"fdp", fdp}});
        const auto &rva = results[0];
        const auto &rfdp = results[1];
        const double va_ipc = meanOf(rva, metricIpc, MeanKind::Geometric);
        const double fdp_ipc =
            meanOf(rfdp, metricIpc, MeanKind::Geometric);
        const double va_bpki =
            meanOf(rva, metricBpki, MeanKind::Arithmetic);
        const double fdp_bpki =
            meanOf(rfdp, metricBpki, MeanKind::Arithmetic);
        t.addRow({fmtDouble(gbps, 2), fmtDouble(va_ipc, 3),
                  fmtDouble(fdp_ipc, 3),
                  fmtPercent(fdp_ipc / va_ipc - 1.0),
                  fmtDouble(va_bpki, 2), fmtDouble(fdp_bpki, 2),
                  fmtPercent(fdp_bpki / va_bpki - 1.0)});
    }
    t.print();

    std::printf("\nReading the table: at the baseline bus FDP wins both "
                "IPC and bandwidth outright. As the bus shrinks toward "
                "saturation the two converge - demand-over-prefetch "
                "arbitration already shields demands, so the remaining "
                "FDP benefit is the bandwidth it does not waste "
                "(paper Section 1's CMP argument).\n");
    return 0;
}
