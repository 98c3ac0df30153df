/**
 * @file
 * Co-run driver tests: 1-core parity with the single-core experiment
 * path (bit-identical cycles and stats), multi-core run shape,
 * deterministic repetition, and contention actually showing up in the
 * shared hierarchy.
 */

#include <gtest/gtest.h>

#include <bit>
#include <utility>

#include "harness/experiment.hh"
#include "mc/mc_machine.hh"

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
    const McCoreResult &c = corun.cores[0];
    EXPECT_EQ(c.program, s.benchmark);
    EXPECT_EQ(c.insts, s.insts);
    EXPECT_EQ(c.cycles, s.cycles);
    EXPECT_EQ(bits(c.ipc), bits(s.ipc));
    EXPECT_EQ(bits(c.bpki), bits(s.bpki));
    EXPECT_EQ(bits(c.accuracy), bits(s.accuracy));
    EXPECT_EQ(bits(c.lateness), bits(s.lateness));
    EXPECT_EQ(bits(c.pollution), bits(s.pollution));
    EXPECT_EQ(c.prefSent, s.prefSent);
    EXPECT_EQ(c.prefUsed, s.prefUsed);
    EXPECT_EQ(c.l2Misses, s.l2Misses);
    EXPECT_EQ(c.demandAccesses, s.demandAccesses);
    EXPECT_EQ(c.busAccesses, s.busAccesses);
}

/** Parity for `base` on both DRAM backends, over swim, art and mcf. */
void
expectParityAcrossDram(RunConfig base)
{
    base.numInsts = 60'000;
    for (const DramKind dram : {DramKind::Flat, DramKind::Controller}) {
        base.machine.dramCtrl.kind = dram;
        SCOPED_TRACE(dram == DramKind::Flat ? "flat" : "ctrl");
        for (const char *bench : {"swim", "art", "mcf"})
            expectSingleCoreParity(base, bench);
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
    const McRunResult a = runMix(spec, cfg, "fdp");
    const McRunResult b = runMix(spec, cfg, "fdp");
    ASSERT_EQ(a.cores.size(), b.cores.size());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.busAccesses, b.busAccesses);
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
        EXPECT_DOUBLE_EQ(a.cores[i].ipc, b.cores[i].ipc);
        EXPECT_EQ(a.cores[i].busAccesses, b.cores[i].busAccesses);
        EXPECT_EQ(a.cores[i].l2Misses, b.cores[i].l2Misses);
    }
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
    const McRunResult a = runMix(spec, cfg, "fdp");
    const McRunResult b = runMix(spec, cfg, "fdp");
    ASSERT_EQ(a.cores.size(), b.cores.size());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.busAccesses, b.busAccesses);
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        EXPECT_EQ(a.cores[i].cycles, b.cores[i].cycles);
        EXPECT_EQ(a.cores[i].prefetcher, b.cores[i].prefetcher);
        EXPECT_EQ(a.cores[i].busAccesses, b.cores[i].busAccesses);
    }
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

} // namespace
} // namespace fdp
