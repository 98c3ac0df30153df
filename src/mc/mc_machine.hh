/**
 * @file
 * Multi-core co-runs (DESIGN.md §13): N cores over one memory system,
 * built as one SimMachine and driven by runLockstep, exactly as a
 * single-core run is — warm-up and measurement boundary included. A
 * 1-core co-run is therefore the single-core machine with per-core
 * stat groups, and reproduces it cycle for cycle.
 *
 * Each core runs until IT has retired the per-core budget; cores that
 * finish early stop issuing while the rest keep contending (their
 * in-flight prefetches still drain). Per-core cycle counts cover each
 * core's own completion window, the standard multi-programmed
 * methodology for IPC_shared.
 */

#ifndef FDP_MC_MC_MACHINE_HH
#define FDP_MC_MC_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "mc/workload_mix.hh"

namespace fdp
{

/** One co-run configuration: the per-core machine plus the core count. */
struct McRunConfig
{
    /**
     * Per-core configuration. machine/core give the Table 3 geometry
     * (the L2, MSHRs, and DRAM of which are shared); prefetcher and
     * fdp are replicated per core; warmupInsts and numInsts are
     * PER-CORE budgets.
     */
    RunConfig base;
    unsigned numCores = 2;
    /**
     * Optional per-core prefetcher selections (one name per core, as
     * accepted by prefetcherSelectionFromName: "stream", "vldp",
     * "manager", …). Empty = every core runs base.prefetcher, the
     * homogeneous default. Heterogeneous mixes drop out of the zoo for
     * free: each core builds its own selection over the shared L2.
     */
    std::vector<std::string> corePrefetchers;
};

/** One core's share of a co-run. */
struct McCoreResult
{
    std::string program;
    /** Prefetcher this core ran ("manager[vldp]" = manager, exploiting
     *  vldp when the run ended; "-" = none). */
    std::string prefetcher;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;
    double bpki = 0.0;
    double accuracy = 0.0;
    double lateness = 0.0;
    double pollution = 0.0;
    std::uint64_t prefSent = 0;
    std::uint64_t prefUsed = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t demandAccesses = 0;
    /** This core's share of the shared memory bus. */
    std::uint64_t busAccesses = 0;
    /** Demand blocks this core's prefetches evicted from the L2. */
    std::uint64_t pollutionInflicted = 0;
    /** Demand blocks this core lost to OTHER cores' prefetches. */
    std::uint64_t crossPollutionSuffered = 0;
    /** Single-core baseline IPC; set by the mix runner. */
    double aloneIpc = 0.0;
    /** IPC_shared / IPC_alone; set by the mix runner. */
    double speedup = 0.0;
};

/** Everything one co-run produces. */
struct McRunResult
{
    std::string mix;
    std::string config;
    unsigned numCores = 0;
    std::vector<McCoreResult> cores;
    /** Cycles until the LAST core retired its budget. */
    std::uint64_t cycles = 0;
    /** Total shared-bus accesses (all cores, all priorities). */
    std::uint64_t busAccesses = 0;
    /** Sum of per-core IPCs. */
    double throughput = 0.0;
    /// @name Multi-program metrics; set by the mix runner
    /// @{
    double weightedSpeedup = 0.0;
    double harmonicSpeedup = 0.0;
    /** min/max per-core speedup (1.0 = perfectly fair). */
    double fairness = 0.0;
    /// @}
};

/**
 * The one list of McCoreResult's fields: calls @p visit(name, member)
 * for each, like forEachRunResultField, with the field's --out name
 * and a pointer to the member. firstDifferingField() walks it, so a
 * new field needs only its declaration, its value and one line here.
 */
template <class Visit>
void
forEachMcCoreResultField(Visit &&visit)
{
    visit("program", &McCoreResult::program);
    visit("prefetcher", &McCoreResult::prefetcher);
    visit("insts", &McCoreResult::insts);
    visit("cycles", &McCoreResult::cycles);
    visit("ipc", &McCoreResult::ipc);
    visit("bpki", &McCoreResult::bpki);
    visit("accuracy", &McCoreResult::accuracy);
    visit("lateness", &McCoreResult::lateness);
    visit("pollution", &McCoreResult::pollution);
    visit("pref_sent", &McCoreResult::prefSent);
    visit("pref_used", &McCoreResult::prefUsed);
    visit("l2_misses", &McCoreResult::l2Misses);
    visit("demand_accesses", &McCoreResult::demandAccesses);
    visit("bus_accesses", &McCoreResult::busAccesses);
    visit("pollution_inflicted", &McCoreResult::pollutionInflicted);
    visit("cross_pollution_suffered",
          &McCoreResult::crossPollutionSuffered);
    visit("alone_ipc", &McCoreResult::aloneIpc);
    visit("speedup", &McCoreResult::speedup);
}

/** The same for McRunResult's fields, all but `cores`, which
 *  firstDifferingField() walks core by core through the list above. */
template <class Visit>
void
forEachMcRunResultField(Visit &&visit)
{
    visit("mix", &McRunResult::mix);
    visit("config", &McRunResult::config);
    visit("num_cores", &McRunResult::numCores);
    visit("cycles", &McRunResult::cycles);
    visit("bus_accesses", &McRunResult::busAccesses);
    visit("throughput", &McRunResult::throughput);
    visit("weighted_speedup", &McRunResult::weightedSpeedup);
    visit("harmonic_speedup", &McRunResult::harmonicSpeedup);
    visit("fairness", &McRunResult::fairness);
}

/**
 * The first field (in list order, run fields before `cores`) whose
 * value differs between @p a and @p b bit for bit: a run field's name,
 * "cores" when the core counts differ, or "cores[i].<field>"; "" when
 * every field matches. The run field named @p skip is not compared.
 */
std::string firstDifferingField(const McRunResult &a, const McRunResult &b,
                                std::string_view skip = {});

/**
 * Run @p workloads (one per core, typically from buildMixWorkloads)
 * under @p config: every core warms up for base.warmupInsts, the
 * machine crosses measurementBoundary, and every core then runs
 * base.numInsts. Speedup fields are left zero — runMixSweep fills
 * them from the single-core baselines.
 */
McRunResult runMcWorkloads(const McRunConfig &config,
                           const std::vector<std::unique_ptr<Workload>> &workloads,
                           const std::string &mixName,
                           const std::string &configLabel);

/** Instantiate @p spec's workloads and co-run them under @p config. */
McRunResult runMix(const MixSpec &spec, const McRunConfig &config,
                   const std::string &configLabel);

} // namespace fdp

#endif // FDP_MC_MC_MACHINE_HH
