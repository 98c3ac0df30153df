#include "mc/workload_mix.hh"

#include <utility>

#include "sim/logging.hh"
#include "trace/trace_workload.hh"
#include "workload/generators.hh"
#include "workload/spec_suite.hh"

namespace fdp
{

namespace
{

/**
 * Deterministic seed perturbation for the k-th duplicate of a
 * benchmark within one mix: a pure function of the calibrated seed and
 * the duplicate index, so mixes stay bit-identical across runs and
 * job counts while the copies diverge from each other.
 */
std::uint64_t
duplicateSeed(std::uint64_t seed, unsigned dupIndex)
{
    return seed + 1000003ull * dupIndex;
}

MixEntry
bench(const char *name)
{
    MixEntry e;
    e.benchmark = name;
    return e;
}

MixSpec
mix(const char *name, std::vector<MixEntry> entries)
{
    MixSpec s;
    s.name = name;
    s.entries = std::move(entries);
    return s;
}

std::vector<MixSpec>
buildNamedMixes()
{
    std::vector<MixSpec> mixes;
    // Two streamers: both latency-bound alone, bandwidth-bound
    // together; fixed-aggressive prefetching overshoots the shared bus.
    mixes.push_back(mix("mix2-stream", {bench("swim"), bench("mgrid")}));
    // Streamer + pollution victim: swim's (accurate) prefetches fight
    // art's near-L2-sized reuse set for shared capacity.
    mixes.push_back(mix("mix2-victim", {bench("swim"), bench("art")}));
    // Bandwidth hog + low-rate streamer: mcf saturates the bus, so
    // lucas' prefetches queue behind it and run late.
    mixes.push_back(mix("mix2-late", {bench("mcf"), bench("lucas")}));
    // Four streamers: the 4.5 GB/s bus is ~4x oversubscribed; per-core
    // throttling must ration bandwidth the fixed config wastes.
    mixes.push_back(mix("mix4-bw", {bench("swim"), bench("mgrid"),
                                    bench("applu"), bench("lucas")}));
    // Two streamers + two pollution-prone reuse codes.
    mixes.push_back(mix("mix4-victim", {bench("swim"), bench("mgrid"),
                                        bench("art"), bench("ammp")}));
    // Heterogeneous: streamer, victim, bandwidth hog, mixed INT.
    mixes.push_back(mix("mix4-mixed", {bench("swim"), bench("art"),
                                       bench("mcf"), bench("bzip2")}));
    // Prefetcher zoo: heterogeneous per-core PREFETCHERS over a
    // heterogeneous program mix — a streamer on stream, a delta walker
    // on vldp, a spatial reuse code on dspatch, and the manager left to
    // pick for the bandwidth hog (DESIGN.md §17).
    MixSpec zoo = mix("mix4-zoo", {bench("swim"), bench("deltamix"),
                                   bench("art"), bench("mcf")});
    zoo.corePrefetchers = {"stream", "vldp", "dspatch", "manager"};
    mixes.push_back(std::move(zoo));
    // Eight streamers: two copies of each mix4-bw program (duplicates
    // get distinct deterministic seeds, so the copies desynchronize).
    // The flat 4.5 GB/s bus is ~8x oversubscribed; the FR-FCFS
    // controller's FDP-directed scheduling is evaluated here.
    mixes.push_back(mix("mix8-bw",
                        {bench("swim"), bench("mgrid"), bench("applu"),
                         bench("lucas"), bench("swim"), bench("mgrid"),
                         bench("applu"), bench("lucas")}));
    // Heterogeneous eight: streamers, pollution victims, bandwidth
    // hogs, and mixed INT sharing one L2 and one memory controller.
    mixes.push_back(mix("mix8-mixed",
                        {bench("swim"), bench("art"), bench("mcf"),
                         bench("bzip2"), bench("mgrid"), bench("applu"),
                         bench("lucas"), bench("equake")}));
    // Sixteen streamers: four copies of each mix4-bw program; the
    // extreme bandwidth-bound point for multi-channel scaling.
    mixes.push_back(mix("mix16-bw",
                        {bench("swim"), bench("mgrid"), bench("applu"),
                         bench("lucas"), bench("swim"), bench("mgrid"),
                         bench("applu"), bench("lucas"), bench("swim"),
                         bench("mgrid"), bench("applu"), bench("lucas"),
                         bench("swim"), bench("mgrid"), bench("applu"),
                         bench("lucas")}));
    return mixes;
}

} // namespace

std::string
MixEntry::displayName() const
{
    if (!benchmark.empty())
        return benchmark;
    // Strip the directory part of a trace path for report rows.
    const std::size_t slash = tracePath.find_last_of('/');
    return slash == std::string::npos ? tracePath
                                      : tracePath.substr(slash + 1);
}

const std::vector<MixSpec> &
namedMixes()
{
    static const std::vector<MixSpec> mixes = buildNamedMixes();
    return mixes;
}

const MixSpec &
mixByName(const std::string &name)
{
    std::string known;
    for (const MixSpec &m : namedMixes()) {
        if (m.name == name)
            return m;
        known += known.empty() ? m.name : ", " + m.name;
    }
    fatal("unknown mix `%s' (known mixes: %s)", name.c_str(),
          known.c_str());
}

MixSpec
traceMix(const std::vector<std::string> &tracePaths)
{
    if (tracePaths.empty())
        fatal("a trace mix needs at least one trace path");
    MixSpec s;
    s.name = "trace-mix";
    for (const std::string &p : tracePaths) {
        MixEntry e;
        e.tracePath = p;
        s.entries.push_back(std::move(e));
    }
    return s;
}

std::unique_ptr<Workload>
buildAloneWorkload(const MixEntry &entry, unsigned dupIndex)
{
    if (!entry.tracePath.empty())
        return std::make_unique<TraceWorkload>(entry.tracePath);
    SyntheticParams params = benchmarkParams(entry.benchmark);
    params.seed = duplicateSeed(params.seed, dupIndex);
    return std::make_unique<SyntheticWorkload>(params);
}

unsigned
duplicateIndex(const MixSpec &spec, unsigned core)
{
    const MixEntry &entry = spec.entries.at(core);
    unsigned dup = 0;
    for (unsigned prev = 0; prev < core; ++prev)
        if (spec.entries[prev].benchmark == entry.benchmark &&
            spec.entries[prev].tracePath == entry.tracePath)
            ++dup;
    return dup;
}

std::vector<std::unique_ptr<Workload>>
buildMixWorkloads(const MixSpec &spec)
{
    if (spec.entries.empty())
        fatal("mix %s has no entries", spec.name.c_str());
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.reserve(spec.entries.size());
    for (unsigned core = 0; core < spec.numCores(); ++core) {
        const MixEntry &entry = spec.entries[core];
        if (entry.benchmark.empty() == entry.tracePath.empty())
            fatal("mix %s core %u: an entry names exactly one of a "
                  "benchmark or a trace", spec.name.c_str(), core);
        workloads.push_back(std::make_unique<RebasedWorkload>(
            buildAloneWorkload(entry, duplicateIndex(spec, core)),
            kCoreAddrStride * core));
    }
    return workloads;
}

} // namespace fdp
