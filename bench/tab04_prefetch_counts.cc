/**
 * @file
 * Paper Table 4: number of prefetches sent to memory by a Very
 * Aggressive stream prefetcher for each benchmark in the (synthetic)
 * SPEC CPU2000 suite. The paper's memory-intensive cut-off is 200K
 * prefetches over 250M instructions, i.e. 0.8 prefetches per thousand
 * instructions - the same per-instruction threshold is reported here.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "workload/spec_suite.hh"

using namespace fdp;

int
main(int argc, char **argv)
{
    const SweepArgs args = parseSweepArgs(argc, argv, 5'000'000);
    const auto results =
        runSweep(args, "tab04_prefetch_counts", allBenchmarks(),
                 {{"va", RunConfig::staticLevelConfig(5)}});

    Table t("Table 4: prefetches sent by a Very Aggressive stream "
            "prefetcher");
    t.setHeader({"benchmark", "prefetches", "per 1000 insts",
                 "memory-intensive?"});
    for (const RunResult &r : results[0]) {
        const double pki = ratio(static_cast<double>(r.prefSent),
                                 static_cast<double>(r.insts) / 1000.0);
        t.addRow({r.benchmark, std::to_string(r.prefSent), fmtDouble(pki, 2),
                  pki >= 0.8 ? "yes" : "no"});
    }
    t.print();
    std::printf("\nPaper cut-off: 200K prefetches / 250M instructions "
                "= 0.8 per 1000 instructions.\n");
    return 0;
}
