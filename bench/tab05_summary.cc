/**
 * @file
 * Paper Table 5: average IPC and BPKI of every traditional stream
 * prefetcher configuration vs. FDP, plus the paper's
 * "bandwidth-matched" comparison (FDP vs. the static configuration
 * that consumes a similar amount of bandwidth).
 */

#include <cmath>
#include <cstdio>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "workload/spec_suite.hh"

using namespace fdp;

int
main(int argc, char **argv)
{
    const SweepArgs args = parseSweepArgs(argc, argv, 8'000'000);
    const auto &benches = memoryIntensiveBenchmarks();

    const std::vector<LabeledConfig> configs = {
        {"No Prefetching", RunConfig::noPrefetching()},
        {"Very Conservative", RunConfig::staticLevelConfig(1)},
        {"Conservative", RunConfig::staticLevelConfig(2)},
        {"Middle-of-the-Road", RunConfig::staticLevelConfig(3)},
        {"Aggressive", RunConfig::staticLevelConfig(4)},
        {"Very Aggressive", RunConfig::staticLevelConfig(5)},
        {"FDP", RunConfig::fullFdp()},
    };
    const std::vector<std::string> names = labelsOf(configs);
    const auto results = runSweep(args, "tab05_summary", benches, configs);

    Table t("Table 5: average IPC and BPKI, conventional configurations "
            "vs FDP");
    t.setHeader({"configuration", "IPC (gmean)", "BPKI (amean)"});
    std::vector<double> ipcs, bpkis;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const double ipc =
            meanOf(results[i], metricIpc, MeanKind::Geometric);
        const double bpki =
            meanOf(results[i], metricBpki, MeanKind::Arithmetic);
        ipcs.push_back(ipc);
        bpkis.push_back(bpki);
        if (i + 1 == results.size())
            t.addRule();
        t.addRow({names[i], fmtDouble(ipc, 3), fmtDouble(bpki, 2)});
    }
    t.print();

    // Bandwidth-matched comparison: find the static configuration whose
    // BPKI is closest to FDP's (paper: Middle-of-the-Road, within 2.5%).
    const double fdp_bpki = bpkis.back();
    std::size_t match = 1;
    for (std::size_t i = 1; i + 1 < results.size(); ++i)
        if (std::abs(bpkis[i] - fdp_bpki) <
            std::abs(bpkis[match] - fdp_bpki))
            match = i;
    std::printf("\nBandwidth-matched static configuration: %s "
                "(BPKI %.2f vs FDP %.2f)\n",
                names[match].c_str(), bpkis[match], fdp_bpki);
    std::printf("FDP vs %s: %s IPC (paper: +13.6%% vs the "
                "bandwidth-matched configuration)\n",
                names[match].c_str(),
                fmtPercent(ipcs.back() / ipcs[match] - 1.0).c_str());
    std::printf("FDP vs Very Aggressive: %s IPC, %s bandwidth "
                "(paper: +6.5%% IPC, -18.7%% bandwidth)\n",
                fmtPercent(ipcs.back() / ipcs[5] - 1.0).c_str(),
                fmtPercent(bpkis.back() / bpkis[5] - 1.0).c_str());
    return 0;
}
