/**
 * @file
 * Multi-core co-run experiment (DESIGN.md §13): every named workload
 * mix under {No Prefetching, Very Aggressive (static level 5), per-core
 * FDP}, reporting weighted/harmonic speedup, fairness, and per-core
 * bandwidth/pollution attribution. The paper's single-core claim —
 * feedback throttling keeps prefetching's wins while cutting its
 * bandwidth cost — must survive contention: on bandwidth-bound mixes,
 * per-core FDP beats the fixed Very Aggressive configuration.
 */

#include <cstdio>

#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"
#include "mc/mix_runner.hh"

using namespace fdp;

int
main(int argc, char **argv)
{
    std::uint64_t insts = 2'000'000;
    unsigned jobs = 0;
    std::string outPath;
    std::vector<const MixSpec *> mixes;
    parseFlags(argc, argv,
               {instsFlag(insts), quickFlag(insts), jobsFlag(jobs),
                {"--mix", "NAME",
                 "co-run only this mix (repeatable; default: every mix)",
                 [&mixes](const char *v) {
                     mixes.push_back(&mixByName(v));
                 }},
                outFlag(outPath)});
    if (mixes.empty())
        for (const MixSpec &m : namedMixes())
            mixes.push_back(&m);

    const std::vector<std::string> labels = {"No Prefetching",
                                             "Very Aggressive", "FDP"};
    ResultsJson json("mix05_corun");
    Table overview("Co-run overview: weighted speedup per mix");
    overview.setHeader({"mix", "cores", labels[0], labels[1], labels[2],
                        "FDP vs aggr"});

    double aggrWsOnBwMixes = 0.0, fdpWsOnBwMixes = 0.0;
    for (const MixSpec *mix : mixes) {
        std::vector<McLabeledConfig> configs;
        const RunConfig bases[] = {RunConfig::noPrefetching(),
                                   RunConfig::staticLevelConfig(5),
                                   RunConfig::fullFdp()};
        for (std::size_t c = 0; c < labels.size(); ++c) {
            McLabeledConfig lc;
            lc.label = labels[c];
            lc.config.base = bases[c];
            lc.config.base.numInsts = insts;
            lc.config.numCores = mix->numCores();
            configs.push_back(std::move(lc));
        }

        const auto results = runMixSweep(*mix, configs, jobs);
        buildMixSummaryTable(results).print();
        buildMixCoreTable(results).print();
        for (const McRunResult &r : results)
            addMcRunResult(json, r);

        overview.addRow(
            {mix->name, std::to_string(mix->numCores()),
             fmtDouble(results[0].weightedSpeedup, 3),
             fmtDouble(results[1].weightedSpeedup, 3),
             fmtDouble(results[2].weightedSpeedup, 3),
             fmtPercent(results[2].weightedSpeedup /
                            results[1].weightedSpeedup -
                        1.0)});
        // Bandwidth-bound mixes: every core is a streamer, so the
        // shared bus is the bottleneck and throttling has to pay off.
        if (mix->name == "mix2-stream" || mix->name == "mix4-bw") {
            aggrWsOnBwMixes += results[1].weightedSpeedup;
            fdpWsOnBwMixes += results[2].weightedSpeedup;
        }
    }

    overview.print();
    if (aggrWsOnBwMixes > 0.0)
        std::printf("\nFDP vs Very Aggressive on bandwidth-bound mixes: "
                    "%s weighted speedup\n",
                    fmtPercent(fdpWsOnBwMixes / aggrWsOnBwMixes - 1.0)
                        .c_str());

    if (!outPath.empty())
        json.writeFile(outPath);
    return 0;
}
