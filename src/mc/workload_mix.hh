/**
 * @file
 * Workload mixes for multi-core co-run experiments (DESIGN.md §13).
 *
 * A mix names one program per core: either a calibrated SPEC stand-in
 * from spec_suite.cc or a recorded fdptrace-v1 file. Each core's
 * program is wrapped in a RebasedWorkload placing it in a disjoint
 * 2^46-byte slice of the physical address space, so co-runners share
 * the L2, the MSHRs, and the memory bus but never data. Seeds stay
 * calibrated and per benchmark (DESIGN.md §10); when a mix runs the
 * same benchmark on several cores, each duplicate gets a distinct
 * deterministic seed perturbation so the copies do not move in
 * lockstep.
 */

#ifndef FDP_MC_WORKLOAD_MIX_HH
#define FDP_MC_WORKLOAD_MIX_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "workload/workload.hh"

namespace fdp
{

/**
 * Per-core slice of the physical address space (2^46 bytes). The
 * synthetic generators top out below 2^42, so slices can never touch;
 * the stride is a multiple of every cache-set and DRAM-row geometry in
 * use, so rebasing changes no index/bank mapping relative to a core's
 * own stream.
 */
inline constexpr Addr kCoreAddrStride = Addr{1} << 46;

/** One core's program: a benchmark stand-in or a recorded trace. */
struct MixEntry
{
    std::string benchmark;  ///< spec_suite name; empty for a trace
    std::string tracePath;  ///< fdptrace-v1 path; empty for a benchmark

    /** Name used in per-core reporting rows. */
    std::string displayName() const;
};

/** A named co-run: one entry per core. */
struct MixSpec
{
    std::string name;
    std::vector<MixEntry> entries;
    /**
     * Optional per-core prefetcher selections (McRunConfig semantics:
     * one name per core, empty = the run configuration's prefetcher on
     * every core). Lets a named mix pin a heterogeneous machine, e.g.
     * mix4-zoo's stream/vldp/dspatch/manager line-up.
     */
    std::vector<std::string> corePrefetchers;

    unsigned numCores() const
    {
        return static_cast<unsigned>(entries.size());
    }
};

/** The named 2- and 4-core mixes (bandwidth-bound, victim, latency). */
const std::vector<MixSpec> &namedMixes();

/** Look up a named mix; fatal (listing the names) on an unknown one. */
const MixSpec &mixByName(const std::string &name);

/** Build an ad-hoc mix running one recorded trace per core. */
MixSpec traceMix(const std::vector<std::string> &tracePaths);

/**
 * How many cores before @p core in @p spec run the same program. A
 * co-run workload and its alone baseline both take their seed
 * perturbation from this index, so both must read it here.
 */
unsigned duplicateIndex(const MixSpec &spec, unsigned core);

/**
 * Instantiate the per-core workloads of @p spec, rebased into each
 * core's address slice. Fatal on unknown benchmark names or unreadable
 * traces. Duplicate benchmark entries get deterministic per-core seed
 * perturbations (a pure function of the duplicate index).
 */
std::vector<std::unique_ptr<Workload>> buildMixWorkloads(const MixSpec &spec);

/**
 * The workload for @p entry running alone, NOT rebased: the
 * single-core baseline runs of weighted/harmonic speedup use it, and
 * for benchmarks it is bit-identical to what runBenchmark simulates.
 * @p dupIndex is the entry's duplicateIndex() within its mix so the
 * baseline replays the exact co-run stream.
 */
std::unique_ptr<Workload> buildAloneWorkload(const MixEntry &entry,
                                             unsigned dupIndex);

} // namespace fdp

#endif // FDP_MC_WORKLOAD_MIX_HH
