/**
 * @file
 * Co-run driver tests: 1-core parity with the single-core experiment
 * path (bit-identical cycles and stats, with and without warm-up),
 * multi-core run shape, deterministic repetition, and contention
 * actually showing up in the shared hierarchy.
 */

#include <gtest/gtest.h>

#include <bit>
#include <utility>

#include "harness/experiment.hh"
#include "mc/mc_machine.hh"
#include "mc/workload_mix.hh"
#include "support/same_results.hh"

namespace fdp
{
namespace
{

McRunConfig
mcConfig(RunConfig base, unsigned cores, std::uint64_t insts)
{
    base.numInsts = insts;
    McRunConfig c;
    c.base = base;
    c.numCores = cores;
    return c;
}

MixSpec
benchMix(const char *name, std::vector<std::string> benches)
{
    MixSpec spec;
    spec.name = name;
    for (auto &b : benches)
        spec.entries.push_back(MixEntry{std::move(b), ""});
    return spec;
}

/** Bit-for-bit double equality (EXPECT_DOUBLE_EQ allows 4 ULPs). */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * A 1-core co-run must reproduce the single-core machine exactly, in
 * every field the two result rows share.
 */
void
expectSingleCoreParity(const RunConfig &base, const char *bench)
{
    SCOPED_TRACE(bench);
    const RunResult s = runBenchmark(bench, base, "single");
    const McRunResult corun = runMix(benchMix("parity", {bench}),
                                     mcConfig(base, 1, base.numInsts), "mc");
    ASSERT_EQ(corun.cores.size(), 1u);
    expectSameSharedFields(s, corun.cores[0]);
}

/**
 * Parity for `base` on both DRAM backends, over swim, art and mcf,
 * measured from reset and again after a 40k-op warm-up.
 */
void
expectParityAcrossDram(RunConfig base)
{
    base.numInsts = 60'000;
    for (const std::uint64_t warmup : {0, 40'000}) {
        base.warmupInsts = warmup;
        SCOPED_TRACE(warmup == 0 ? "cold" : "warm");
        for (const DramKind dram :
             {DramKind::Flat, DramKind::Controller}) {
            base.machine.dramCtrl.kind = dram;
            SCOPED_TRACE(dram == DramKind::Flat ? "flat" : "ctrl");
            for (const char *bench : {"swim", "art", "mcf"})
                expectSingleCoreParity(base, bench);
        }
    }
}

/** Parity under `policy` for every prefetcher selection, the manager too. */
void
expectParityGrid(const RunConfig &policy)
{
    for (const std::string &pf : knownPrefetcherNames()) {
        SCOPED_TRACE(pf);
        expectParityAcrossDram(applyPrefetcherSelection(policy, pf));
    }
}

TEST(McMachine, OneCoreParityComparesEverySharedField)
{
    // A field renamed in either list must not leave the check unnoticed.
    std::vector<std::string> shared;
    forEachSharedCoreField(
        [&](const char *name, auto, auto) { shared.emplace_back(name); });
    EXPECT_EQ(shared, (std::vector<std::string>{
                          "insts", "cycles", "ipc", "bpki", "accuracy",
                          "lateness", "pollution", "pref_sent", "pref_used",
                          "l2_misses", "demand_accesses", "bus_accesses"}));
}

TEST(McMachine, OneCoreParityFullFdp)
{
    expectParityGrid(RunConfig::fullFdp());
}

TEST(McMachine, OneCoreParityStaticAggressive)
{
    expectParityGrid(RunConfig::staticLevelConfig(5));
}

TEST(McMachine, OneCoreParityNoPrefetching)
{
    expectParityAcrossDram(RunConfig::noPrefetching());
}

/** Cycles, bus accesses and per-core IPC bits of one recorded co-run. */
struct RecordedCoRun
{
    std::uint64_t cycles;
    std::uint64_t busAccesses;
    std::uint64_t ipcBits[8];
};

void
expectRecordedCoRun(const RunConfig &base, const RecordedCoRun &want)
{
    const McRunResult r =
        runMix(mixByName("mix8-bw"), mcConfig(base, 8, 50'000), "fdp");
    EXPECT_EQ(r.cycles, want.cycles);
    EXPECT_EQ(r.busAccesses, want.busAccesses);
    ASSERT_EQ(r.cores.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(bits(r.cores[i].ipc), want.ipcBits[i]) << "core " << i;
}

TEST(McMachine, ControllerCoRunMatchesRecordedOutput)
{
    // The saturated 8-core FR-FCFS co-run, end to end: scheduling,
    // promotion, tier drops and timing all feed these numbers. Recorded
    // from the controller that rescanned a deque of requests per grant.
    RunConfig base = RunConfig::fullFdp();
    base.machine.dramCtrl.kind = DramKind::Controller;
    {
        SCOPED_TRACE("fdp priority");
        expectRecordedCoRun(
            base, {450623, 10410,
                   {4594263800540787742ull, 4593064562656409144ull,
                    4592659750910170511ull, 4597369169586702623ull,
                    4594298588134907840ull, 4592845922317224130ull,
                    4592988215548345391ull, 4596290419138214976ull}});
    }
    // Weighted service with a QoS cap takes the full-scan pick path.
    base.machine.dramCtrl.qosInFlightCap = 4;
    base.machine.dramCtrl.qosWeighted = true;
    SCOPED_TRACE("cap:4+weighted");
    expectRecordedCoRun(
        base, {514254, 10352,
               {4593210272126649695ull, 4591725221819223832ull,
                4591764334550722020ull, 4594378831170540163ull,
                4593291014593691105ull, 4591670452122125669ull,
                4591754149563770412ull, 4594391659390549628ull}});
}

TEST(McMachine, TwoCoreRunHasSaneShape)
{
    const McRunConfig cfg =
        mcConfig(RunConfig::fullFdp(), 2, 40'000);
    const McRunResult r =
        runMix(benchMix("shape", {"swim", "art"}), cfg, "fdp");
    ASSERT_EQ(r.cores.size(), 2u);
    EXPECT_EQ(r.numCores, 2u);
    EXPECT_EQ(r.cores[0].program, "swim");
    EXPECT_EQ(r.cores[1].program, "art");
    double ipcSum = 0.0;
    std::uint64_t maxCycles = 0, busSum = 0;
    for (const McCoreResult &c : r.cores) {
        EXPECT_EQ(c.insts, 40'000u);  // every core retires its budget
        EXPECT_GT(c.cycles, 0u);
        EXPECT_GT(c.ipc, 0.0);
        ipcSum += c.ipc;
        maxCycles = std::max(maxCycles, c.cycles);
        busSum += c.busAccesses;
    }
    EXPECT_DOUBLE_EQ(r.throughput, ipcSum);
    EXPECT_EQ(r.cycles, maxCycles);
    // Every bus access belongs to exactly one core.
    EXPECT_EQ(busSum, r.busAccesses);
}

TEST(McMachine, CoRunsAreDeterministic)
{
    const McRunConfig cfg =
        mcConfig(RunConfig::fullFdp(), 2, 30'000);
    const MixSpec spec = benchMix("det", {"swim", "mgrid"});
    expectBitIdentical(runMix(spec, cfg, "fdp"), runMix(spec, cfg, "fdp"));
}

TEST(McMachine, SharingTheHierarchySlowsCoresDown)
{
    // Two bandwidth-hungry streamers contending for one bus can never
    // beat their own solo runs under the identical configuration.
    RunConfig base = RunConfig::staticLevelConfig(5);
    base.numInsts = 40'000;
    const RunResult aloneSwim = runBenchmark("swim", base, "alone");
    const RunResult aloneMgrid = runBenchmark("mgrid", base, "alone");

    const McRunConfig cfg =
        mcConfig(RunConfig::staticLevelConfig(5), 2, 40'000);
    const McRunResult r =
        runMix(benchMix("contend", {"swim", "mgrid"}), cfg, "static5");
    EXPECT_LE(r.cores[0].ipc, aloneSwim.ipc);
    EXPECT_LE(r.cores[1].ipc, aloneMgrid.ipc);
    // And the contention is real: someone actually got slower.
    EXPECT_LT(r.cores[0].ipc + r.cores[1].ipc,
              aloneSwim.ipc + aloneMgrid.ipc);
}

TEST(McMachine, FourCoreRunRetiresEveryBudget)
{
    const McRunConfig cfg =
        mcConfig(RunConfig::fullFdp(), 4, 20'000);
    const McRunResult r = runMix(
        benchMix("four", {"swim", "mgrid", "applu", "lucas"}), cfg,
        "fdp");
    ASSERT_EQ(r.cores.size(), 4u);
    for (const McCoreResult &c : r.cores)
        EXPECT_EQ(c.insts, 20'000u);
}

TEST(McMachine, MismatchedCoreCountIsFatal)
{
    const McRunConfig cfg =
        mcConfig(RunConfig::fullFdp(), 4, 10'000);
    EXPECT_EXIT(runMix(benchMix("two", {"swim", "art"}), cfg, "fdp"),
                testing::ExitedWithCode(1), "cores");
}

TEST(McMachine, HeterogeneousCoresRunTheirOwnPrefetchers)
{
    McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 30'000);
    cfg.corePrefetchers = {"stream", "vldp"};
    const McRunResult r =
        runMix(benchMix("hetero", {"swim", "art"}), cfg, "fdp");
    ASSERT_EQ(r.cores.size(), 2u);
    EXPECT_EQ(r.cores[0].prefetcher, "stream");
    EXPECT_EQ(r.cores[1].prefetcher, "vldp");
    for (const McCoreResult &c : r.cores)
        EXPECT_EQ(c.insts, 30'000u);
}

TEST(McMachine, ManagedCoreReportsItsActiveCandidate)
{
    McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 30'000);
    cfg.base.fdp.intervalEvictions = 1024;  // fast manager ticks
    cfg.corePrefetchers = {"manager", "stream"};
    const McRunResult r =
        runMix(benchMix("managed", {"swim", "art"}), cfg, "fdp");
    ASSERT_EQ(r.cores.size(), 2u);
    // "manager[<candidate>]" where <candidate> is a zoo member.
    EXPECT_EQ(r.cores[0].prefetcher.rfind("manager[", 0), 0u)
        << r.cores[0].prefetcher;
    EXPECT_EQ(r.cores[0].prefetcher.back(), ']');
    EXPECT_EQ(r.cores[1].prefetcher, "stream");
}

TEST(McMachine, HeterogeneousRunsAreDeterministic)
{
    McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 30'000);
    cfg.base.fdp.intervalEvictions = 1024;
    cfg.corePrefetchers = {"manager", "dspatch"};
    const MixSpec spec = benchMix("hdet", {"swim", "mgrid"});
    expectBitIdentical(runMix(spec, cfg, "fdp"), runMix(spec, cfg, "fdp"));
}

TEST(McMachine, MixSpecCorePrefetchersFlowThroughRunMix)
{
    MixSpec spec = benchMix("specpf", {"swim", "art"});
    spec.corePrefetchers = {"nextline", "stride"};
    const McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 20'000);
    const McRunResult r = runMix(spec, cfg, "fdp");
    ASSERT_EQ(r.cores.size(), 2u);
    EXPECT_EQ(r.cores[0].prefetcher, "nextline");
    EXPECT_EQ(r.cores[1].prefetcher, "pc-stride");
}

TEST(McMachine, WrongSizedPrefetcherListIsFatal)
{
    McRunConfig cfg = mcConfig(RunConfig::fullFdp(), 2, 10'000);
    cfg.corePrefetchers = {"stream", "vldp", "dspatch"};
    EXPECT_EXIT(runMix(benchMix("bad", {"swim", "art"}), cfg, "fdp"),
                testing::ExitedWithCode(1),
                "per-core prefetcher selections");
}

TEST(McResultFields, ListEveryMemberOfTheStructs)
{
    // Every member is 8-byte aligned once numCores is padded to 8, so
    // the listed members (plus cores) fill each struct exactly unless
    // one is missing from its list.
    auto padded = [](std::size_t bytes) { return (bytes + 7) / 8 * 8; };
    std::size_t run = sizeof(McRunResult{}.cores);
    forEachMcRunResultField([&](const char *, auto member) {
        run += padded(sizeof(McRunResult{}.*member));
    });
    EXPECT_EQ(run, sizeof(McRunResult))
        << "an McRunResult member is missing from forEachMcRunResultField";
    std::size_t core = 0;
    forEachMcCoreResultField([&](const char *, auto member) {
        core += sizeof(McCoreResult{}.*member);
    });
    EXPECT_EQ(core, sizeof(McCoreResult))
        << "an McCoreResult member is missing from forEachMcCoreResultField";
}

TEST(McResultFields, FirstDifferingFieldNamesEachField)
{
    McRunResult a;
    a.cores.resize(2);
    EXPECT_EQ(firstDifferingField(a, a), "");
    forEachMcRunResultField([&](const char *name, auto member) {
        McRunResult b = a;
        nudge(b.*member);
        EXPECT_EQ(firstDifferingField(a, b), name);
        EXPECT_EQ(firstDifferingField(a, b, name), "");
    });
    forEachMcCoreResultField([&](const char *name, auto member) {
        McRunResult b = a;
        nudge(b.cores[1].*member);
        EXPECT_EQ(firstDifferingField(a, b), std::string("cores[1].") + name);
    });

    McRunResult oneCore = a;
    oneCore.cores.pop_back();
    EXPECT_EQ(firstDifferingField(a, oneCore), "cores");
    // Doubles compare bit for bit: -0.0 == 0.0 by value, not by bits.
    McRunResult negativeZero = a;
    negativeZero.cores[0].accuracy = -0.0;
    EXPECT_EQ(firstDifferingField(a, negativeZero), "cores[0].accuracy");
}

} // namespace
} // namespace fdp
