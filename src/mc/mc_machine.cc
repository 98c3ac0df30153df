#include "mc/mc_machine.hh"

#include <algorithm>

#include "manage/prefetcher_manager.hh"
#include "sim/logging.hh"

namespace fdp
{

namespace
{

/** Human-readable prefetcher label for the per-core result row. */
std::string
describePrefetcher(const Prefetcher *pf)
{
    if (pf == nullptr)
        return "-";
    if (const auto *mgr = dynamic_cast<const ManagedPrefetcher *>(pf))
        return std::string("manager[") + mgr->activeName() + "]";
    return pf->name();
}

} // namespace

McRunResult
runMcWorkloads(const McRunConfig &config,
               const std::vector<std::unique_ptr<Workload>> &workloads,
               const std::string &mixName, const std::string &configLabel)
{
    const unsigned n = config.numCores;
    if (n == 0)
        fatal("a co-run needs at least one core");
    if (workloads.size() != n)
        fatal("co-run of %u cores got %zu workloads", n,
              workloads.size());

    std::vector<Workload *> programs;
    for (const auto &w : workloads)
        programs.push_back(w.get());
    SimMachine m(config.base, programs, config.corePrefetchers);
    if (config.base.warmupInsts > 0) {
        m.run(config.base.warmupInsts);
        measurementBoundary(m);
    }
    m.run(config.base.numInsts);

    McRunResult r;
    r.mix = mixName;
    r.config = configLabel;
    r.numCores = n;
    r.busAccesses = m.mem.dram().busAccesses();
    for (unsigned i = 0; i < n; ++i) {
        const CoreId core(i);
        const RunResult s = extractResult(m, configLabel, core);
        r.cores.push_back(McCoreResult{
            .program = s.benchmark,
            .prefetcher = describePrefetcher(m.prefetcher(core)),
            .insts = s.insts, .cycles = s.cycles, .ipc = s.ipc,
            .bpki = s.bpki, .accuracy = s.accuracy,
            .lateness = s.lateness, .pollution = s.pollution,
            .prefSent = s.prefSent, .prefUsed = s.prefUsed,
            .l2Misses = s.l2Misses, .demandAccesses = s.demandAccesses,
            .busAccesses = s.busAccesses,
            .pollutionInflicted = m.mem.pollutionInflicted(core),
            .crossPollutionSuffered = m.mem.crossPollutionSuffered(core),
        });
        r.cycles = std::max(r.cycles, s.cycles);
        r.throughput += s.ipc;
    }
    return r;
}

std::string
firstDifferingField(const McRunResult &a, const McRunResult &b,
                    std::string_view skip)
{
    std::string differs;
    forEachMcRunResultField([&](const char *name, auto member) {
        if (differs.empty() && name != skip &&
            !sameBits(a.*member, b.*member))
            differs = name;
    });
    if (differs.empty() && a.cores.size() != b.cores.size())
        differs = "cores";
    for (std::size_t i = 0; differs.empty() && i < a.cores.size(); ++i)
        forEachMcCoreResultField([&](const char *name, auto member) {
            if (differs.empty() &&
                !sameBits(a.cores[i].*member, b.cores[i].*member))
                differs = "cores[" + std::to_string(i) + "]." + name;
        });
    return differs;
}

McRunResult
runMix(const MixSpec &spec, const McRunConfig &config,
       const std::string &configLabel)
{
    if (spec.numCores() != config.numCores)
        fatal("mix %s names %u cores but the configuration has %u",
              spec.name.c_str(), spec.numCores(), config.numCores);
    McRunConfig cfg = config;
    if (cfg.corePrefetchers.empty())
        cfg.corePrefetchers = spec.corePrefetchers;
    const auto workloads = buildMixWorkloads(spec);
    return runMcWorkloads(cfg, workloads, spec.name, configLabel);
}

} // namespace fdp
