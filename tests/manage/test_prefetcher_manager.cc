/**
 * @file
 * Unit tests for the runtime prefetcher manager: the exploration/
 * exploitation FSM over a stub zoo, snapshotting, and end-to-end
 * convergence on real benchmarks through the full harness.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep_pool.hh"
#include "manage/prefetcher_manager.hh"
#include "sim/check.hh"
#include "sim/snapshot.hh"
#include "workload/spec_suite.hh"

namespace fdp
{
namespace
{

/**
 * A zoo candidate with no behavior of its own: it counts observations,
 * optionally emits one canned block, and records resets, so tests can
 * see exactly which candidate the manager is running.
 */
class StubPrefetcher : public Prefetcher
{
  public:
    explicit StubPrefetcher(const char *name, BlockAddr emit = 0)
        : name_(name), emit_(emit)
    {
    }

    void setAggressiveness(unsigned level) override { level_ = level; }
    unsigned aggressiveness() const override { return level_; }
    const char *name() const override { return name_; }
    void reset() override { ++resets; }
    void audit() const override {}

    void
    saveState(SnapWriter &w) const override
    {
        w.beginSection(snapName());
        w.putU8(static_cast<std::uint8_t>(level_));
        w.putU64(observes);
        w.endSection();
    }

    void
    loadState(SnapReader &r) override
    {
        r.openSection(snapName());
        level_ = r.getU8();
        observes = r.getU64();
        r.closeSection();
    }

    std::uint64_t observes = 0;
    unsigned resets = 0;

  private:
    void
    doObserve(const PrefetchObservation &, std::vector<BlockAddr> &out,
              std::size_t budget) override
    {
        ++observes;
        if (emit_ != 0 && budget >= 1)
            out.push_back(emit_);
    }

    const char *name_;
    BlockAddr emit_;
    unsigned level_ = kInitialAggrLevel;
};

/** A stub zoo plus non-owning handles for inspection after the move. */
struct StubZoo
{
    std::vector<std::unique_ptr<Prefetcher>> owned;
    std::vector<StubPrefetcher *> stubs;
};

StubZoo
makeStubs(const std::vector<const char *> &names)
{
    StubZoo zoo;
    BlockAddr emit = 100;
    for (const char *name : names) {
        auto stub = std::make_unique<StubPrefetcher>(name, emit);
        emit += 100;
        zoo.stubs.push_back(stub.get());
        zoo.owned.push_back(std::move(stub));
    }
    return zoo;
}

/** Feeds intervalTick() a per-interval IPC via cumulative counters. */
class TickDriver
{
  public:
    explicit TickDriver(ManagedPrefetcher &mgr) : mgr_(mgr) {}

    void
    tick(double ipc, double pollution = 0.0, double accuracy = 0.0)
    {
        retired_ += static_cast<std::uint64_t>(ipc * 10000.0);
        cycle_ += 10000;
        mgr_.intervalTick({accuracy, 0.0, pollution, retired_, cycle_});
    }

  private:
    ManagedPrefetcher &mgr_;
    std::uint64_t retired_ = 0;
    Cycle cycle_ = 0;
};

ManagerParams
quickParams()
{
    ManagerParams p;
    p.exploreIntervals = 1;
    p.exploitIntervals = 8;
    p.hysteresisPct = 3.0;
    p.reexploreDropPct = 25.0;
    return p;
}

TEST(PrefetcherManager, PrimingTickOnlyCalibrates)
{
    StubZoo zoo = makeStubs({"a", "b", "c"});
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Explore);
    EXPECT_EQ(mgr.activeIndex(), 0u);
    drive.tick(1.0);  // priming: no score, no advance
    EXPECT_EQ(mgr.activeIndex(), 0u);
    EXPECT_EQ(mgr.ticks(), 1u);
    drive.tick(1.0);  // first real interval scores candidate 0
    EXPECT_EQ(mgr.activeIndex(), 1u);
}

TEST(PrefetcherManager, ExplorationWalksTheZooInOrder)
{
    StubZoo zoo = makeStubs({"a", "b", "c"});
    ManagerParams params = quickParams();
    params.exploreIntervals = 2;
    ManagedPrefetcher mgr(params, std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);  // prime
    for (const std::size_t expected : {0u, 0u, 1u, 1u, 2u}) {
        EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Explore);
        EXPECT_EQ(mgr.activeIndex(), expected);
        drive.tick(1.0);
    }
    // The sixth scoring tick closes the round.
    drive.tick(1.0);
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
}

TEST(PrefetcherManager, ElectsTheHighestScoringCandidate)
{
    StubZoo zoo = makeStubs({"a", "b", "c"});
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);  // prime
    drive.tick(0.5);  // a
    drive.tick(2.0);  // b
    drive.tick(1.0);  // c -> election
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
    EXPECT_EQ(mgr.activeIndex(), 1u);
    EXPECT_STREQ(mgr.activeName(), "b");
    EXPECT_EQ(mgr.roundsWon(1), 1u);
    EXPECT_EQ(mgr.roundsWon(0), 0u);
}

TEST(PrefetcherManager, TiesBreakToTheLowestIndex)
{
    StubZoo zoo = makeStubs({"a", "b", "c"});
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);
    drive.tick(1.0);
    drive.tick(1.0);
    drive.tick(0.5);
    EXPECT_EQ(mgr.activeIndex(), 0u);
}

TEST(PrefetcherManager, PollutionPenaltyOutweighsRawIpc)
{
    StubZoo zoo = makeStubs({"a", "b"});
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);
    drive.tick(1.0, 0.8);  // a: score 1.0 * (1 - 0.4) = 0.6
    drive.tick(0.8, 0.0);  // b: score 0.8 -> wins despite lower IPC
    EXPECT_EQ(mgr.activeIndex(), 1u);
}

TEST(PrefetcherManager, AccuracyRewardBreaksNearTies)
{
    StubZoo zoo = makeStubs({"a", "b"});
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);
    drive.tick(1.0, 0.0, 0.0);  // a: score 1.0
    drive.tick(1.0, 0.0, 1.0);  // b: score 1.05
    EXPECT_EQ(mgr.activeIndex(), 1u);
}

/** Run one full exploration round over a 3-way zoo. */
void
exploreRound(TickDriver &drive, double a, double b, double c)
{
    drive.tick(a);
    drive.tick(b);
    drive.tick(c);
}

TEST(PrefetcherManager, HysteresisProtectsTheIncumbent)
{
    StubZoo zoo = makeStubs({"a", "b", "c"});
    ManagerParams params = quickParams();
    params.hysteresisPct = 10.0;
    params.exploitIntervals = 1;  // re-explore after one exploit tick
    ManagedPrefetcher mgr(params, std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);  // prime
    exploreRound(drive, 1.0, 0.5, 0.5);  // a elected
    EXPECT_EQ(mgr.activeIndex(), 0u);
    drive.tick(1.0);  // single exploit tick -> re-explore
    // b beats a by 5%: inside the 10% hysteresis band, a keeps the seat.
    exploreRound(drive, 1.0, 1.05, 0.1);
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
    EXPECT_EQ(mgr.activeIndex(), 0u);
    EXPECT_EQ(mgr.roundsWon(0), 2u);
    drive.tick(1.0);
    // A 50% improvement clears the bar and dethrones the incumbent.
    exploreRound(drive, 1.0, 1.5, 0.1);
    EXPECT_EQ(mgr.activeIndex(), 1u);
    EXPECT_EQ(mgr.roundsWon(1), 1u);
}

TEST(PrefetcherManager, FirstExploitIntervalPrimesTheCollapseBaseline)
{
    StubZoo zoo = makeStubs({"a", "b"});
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);   // prime
    drive.tick(10.0);  // a: a cold-cache-inflated exploration score
    drive.tick(1.0);   // b -> a elected off the inflated score
    ASSERT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
    // 90% below the election score, but the first exploit interval only
    // primes the baseline: no spurious collapse.
    drive.tick(1.0);
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
    drive.tick(0.9);  // above 75% of the 1.0 baseline: still fine
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
    drive.tick(0.5);  // collapse: 50% of baseline -> re-explore
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Explore);
    EXPECT_EQ(mgr.activeIndex(), 0u);
}

TEST(PrefetcherManager, CollapseBaselineTracksTheBestExploitInterval)
{
    StubZoo zoo = makeStubs({"a", "b"});
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);
    drive.tick(2.0);  // a
    drive.tick(1.0);  // b -> a elected
    drive.tick(1.0);  // primes baseline at 1.0
    drive.tick(2.0);  // raises it to 2.0
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
    drive.tick(1.4);  // below 75% of 2.0 -> collapse
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Explore);
}

TEST(PrefetcherManager, ZeroDropPctDisablesTheEarlyTrigger)
{
    StubZoo zoo = makeStubs({"a", "b"});
    ManagerParams params = quickParams();
    params.reexploreDropPct = 0.0;
    params.exploitIntervals = 100;
    ManagedPrefetcher mgr(params, std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);
    drive.tick(2.0);
    drive.tick(1.0);
    drive.tick(1.0);
    drive.tick(0.01);  // a 99% collapse, but the trigger is off
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
}

TEST(PrefetcherManager, ExploitScheduleExpiryReExplores)
{
    StubZoo zoo = makeStubs({"a", "b"});
    ManagerParams params = quickParams();
    params.exploitIntervals = 3;
    ManagedPrefetcher mgr(params, std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);
    drive.tick(2.0);
    drive.tick(1.0);  // a elected
    drive.tick(1.0);
    drive.tick(1.0);
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
    drive.tick(1.0);  // third exploit interval: schedule expires
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Explore);
    EXPECT_EQ(mgr.activeIndex(), 0u);
}

TEST(PrefetcherManager, AggressivenessFollowsTheActiveCandidate)
{
    StubZoo zoo = makeStubs({"a", "b", "c"});
    auto *a = zoo.stubs[0];
    auto *b = zoo.stubs[1];
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    mgr.setAggressiveness(5);
    EXPECT_EQ(mgr.aggressiveness(), 5u);
    EXPECT_EQ(a->aggressiveness(), 5u);
    drive.tick(1.0);  // prime
    drive.tick(1.0);  // advance to candidate b
    // The incoming candidate inherits the published FDP level.
    EXPECT_EQ(b->aggressiveness(), 5u);
    mgr.setAggressiveness(1);
    EXPECT_EQ(b->aggressiveness(), 1u);
    mgr.audit();
}

TEST(PrefetcherManager, ObserveDelegatesToTheActiveCandidate)
{
    StubZoo zoo = makeStubs({"a", "b"});  // a emits 100, b emits 200
    auto *a = zoo.stubs[0];
    auto *b = zoo.stubs[1];
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    std::vector<BlockAddr> out;
    mgr.observe({0x1000, 0x40, 0x10, true}, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 100u);
    EXPECT_EQ(a->observes, 1u);
    EXPECT_EQ(b->observes, 0u);
    drive.tick(1.0);
    drive.tick(1.0);  // candidate b is live now
    out.clear();
    mgr.observe({0x1000, 0x40, 0x10, true}, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 200u);
    EXPECT_EQ(b->observes, 1u);
}

TEST(PrefetcherManager, ResetRestoresTheColdFsm)
{
    StubZoo zoo = makeStubs({"a", "b"});
    auto *a = zoo.stubs[0];
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);
    drive.tick(2.0);
    drive.tick(1.0);
    ASSERT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Exploit);
    mgr.reset();
    EXPECT_EQ(mgr.phase(), ManagedPrefetcher::Phase::Explore);
    EXPECT_EQ(mgr.activeIndex(), 0u);
    EXPECT_EQ(mgr.ticks(), 0u);
    EXPECT_EQ(mgr.roundsWon(0), 0u);
    EXPECT_EQ(a->resets, 1u);
    mgr.audit();
}

TEST(PrefetcherManager, SnapshotRoundTripIsByteExact)
{
    StubZoo zoo = makeStubs({"a", "b", "c"});
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    TickDriver drive(mgr);
    drive.tick(1.0);
    drive.tick(0.5);
    drive.tick(2.0);
    drive.tick(1.0);  // b elected
    drive.tick(1.2);  // baseline primed mid-exploit
    SnapWriter w1;
    mgr.saveState(w1);

    StubZoo zoo2 = makeStubs({"a", "b", "c"});
    ManagedPrefetcher restored(quickParams(), std::move(zoo2.owned));
    SnapReader r(w1.bytes());
    restored.loadState(r);
    EXPECT_TRUE(r.atEnd());
    SnapWriter w2;
    restored.saveState(w2);
    EXPECT_EQ(w1.bytes(), w2.bytes());
    EXPECT_EQ(restored.phase(), ManagedPrefetcher::Phase::Exploit);
    EXPECT_EQ(restored.activeIndex(), 1u);
    EXPECT_EQ(restored.ticks(), 5u);
    restored.audit();

    // The restored FSM continues identically: the same collapse fires
    // at the same tick on both instances.
    TickDriver driveRestored(restored);
    drive.tick(0.4);
    driveRestored.tick(0.4);
    EXPECT_EQ(mgr.phase(), restored.phase());
    EXPECT_EQ(mgr.activeIndex(), restored.activeIndex());
}

TEST(PrefetcherManagerDeathTest, SnapshotZooMismatchIsFatal)
{
    StubZoo zoo = makeStubs({"a", "b"});
    ManagedPrefetcher mgr(quickParams(), std::move(zoo.owned));
    SnapWriter w;
    mgr.saveState(w);

    StubZoo other = makeStubs({"a", "x"});
    ManagedPrefetcher victim(quickParams(), std::move(other.owned));
    SnapReader r(w.bytes());
    EXPECT_DEATH(victim.loadState(r), "zoo candidate");
}

TEST(PrefetcherManagerDeathTest, ConstructorRejectsBadZoos)
{
    EXPECT_DEATH(ManagedPrefetcher(quickParams(), {}), "nonempty zoo");
    {
        StubZoo dup = makeStubs({"a", "a"});
        EXPECT_DEATH(
            ManagedPrefetcher(quickParams(), std::move(dup.owned)),
            "duplicate zoo candidate");
    }
    {
        StubZoo zoo = makeStubs({"a"});
        ManagerParams params = quickParams();
        params.exploreIntervals = 0;
        EXPECT_DEATH(ManagedPrefetcher(params, std::move(zoo.owned)),
                     "nonzero explore/exploit");
    }
}

// ---------------------------------------------------------------------------
// End-to-end convergence through the full harness
// ---------------------------------------------------------------------------

/** Run a benchmark with the manager on and return (wins, manager). */
std::vector<std::uint64_t>
convergenceWins(const std::string &bench, std::uint64_t insts)
{
    RunConfig c = RunConfig::fullFdp();
    c.manager = ManagerKind::Explore;
    // Short sampling intervals so several exploration rounds fit into a
    // test-sized run.
    c.fdp.intervalEvictions = 1024;
    c.numInsts = insts;
    auto workload = makeBenchmark(bench);
    SimMachine m(*workload, c);
    m.run(c.numInsts);
    auto *mgr = dynamic_cast<ManagedPrefetcher *>(m.prefetcher());
    EXPECT_NE(mgr, nullptr);
    std::vector<std::uint64_t> wins;
    for (std::size_t i = 0; i < mgr->zooSize(); ++i)
        wins.push_back(mgr->roundsWon(i));
    return wins;
}

// Default zoo order (defaultManagerZoo): stream, stride, vldp,
// dspatch, nextline.
constexpr std::size_t kZooStream = 0;
constexpr std::size_t kZooVldp = 2;

TEST(PrefetcherManagerConvergence, StreamFriendlyTraceElectsStream)
{
    // wupwise starts cache-resident: the first L2-eviction intervals
    // arrive late, so the run needs headroom for full election rounds.
    const auto wins = convergenceWins("wupwise", 6'000'000);
    ASSERT_EQ(wins.size(), 5u);
    for (std::size_t i = 0; i < wins.size(); ++i) {
        if (i != kZooStream) {
            EXPECT_GE(wins[kZooStream], wins[i]) << "candidate " << i;
        }
    }
    EXPECT_GE(wins[kZooStream], 1u);
}

TEST(PrefetcherManagerConvergence, DeltaPatternTraceElectsVldp)
{
    const auto wins = convergenceWins("deltamix", 2'000'000);
    ASSERT_EQ(wins.size(), 5u);
    for (std::size_t i = 0; i < wins.size(); ++i) {
        if (i != kZooVldp) {
            EXPECT_GE(wins[kZooVldp], wins[i]) << "candidate " << i;
        }
    }
    EXPECT_GE(wins[kZooVldp], 1u);
}

// ---------------------------------------------------------------------------
// Scheduling determinism with the manager on
// ---------------------------------------------------------------------------

TEST(PrefetcherManagerSweep, JobCountNeverChangesManagedResults)
{
    RunConfig c = RunConfig::fullFdp();
    c.manager = ManagerKind::Explore;
    c.fdp.intervalEvictions = 1024;
    c.numInsts = 120'000;
    const std::vector<std::string> benches = {"deltamix", "swim"};
    const std::vector<LabeledConfig> configs = {{"Managed", c}};

    const auto seq = runSweep(benches, configs, 1);
    const auto par = runSweep(benches, configs, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        ASSERT_EQ(seq[i].size(), par[i].size());
        for (std::size_t k = 0; k < seq[i].size(); ++k) {
            EXPECT_EQ(seq[i][k].benchmark, par[i][k].benchmark);
            EXPECT_EQ(seq[i][k].cycles, par[i][k].cycles);
            EXPECT_EQ(seq[i][k].busAccesses, par[i][k].busAccesses);
            EXPECT_EQ(seq[i][k].l2Misses, par[i][k].l2Misses);
            EXPECT_EQ(seq[i][k].prefSent, par[i][k].prefSent);
            EXPECT_EQ(seq[i][k].prefUsed, par[i][k].prefUsed);
        }
    }
}

} // namespace
} // namespace fdp
