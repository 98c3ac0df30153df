/**
 * The benchmark's decorators must be invisible to the simulation: they
 * forward every virtual of the interface they wrap, so a traced run of
 * each workload is bit-identical to the untraced one.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "decorators.hh"
#include "harness/experiment.hh"
#include "machines.hh"
#include "prefetch/stream_prefetcher.hh"
#include "workload/spec_suite.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

std::vector<std::uint8_t>
saved(const fdp::Snapshottable &s)
{
    fdp::SnapWriter w;
    s.saveState(w);
    return w.bytes();
}

/** Drive a prefetcher with a deterministic miss stream. */
std::vector<fdp::BlockAddr>
observeStream(fdp::Prefetcher &pf)
{
    std::vector<fdp::BlockAddr> out;
    for (fdp::Addr a = 0; a < 64 * 4096; a += 64) {
        const fdp::PrefetchObservation obs{a, a / 64, 0x400, true, 0.0};
        pf.observe(obs, out);
    }
    return out;
}

} // namespace

TEST(TracedPrefetcher, ForwardsEveryVirtual)
{
    Tracer tracer;
    fdp::StreamPrefetcher inner{fdp::StreamPrefetcherParams{}};
    TracedPrefetcher traced(inner, &tracer);
    fdp::StreamPrefetcher reference{fdp::StreamPrefetcherParams{}};

    traced.setAggressiveness(2);
    reference.setAggressiveness(2);
    EXPECT_EQ(inner.aggressiveness(), 2u);
    EXPECT_EQ(traced.aggressiveness(), 2u);
    EXPECT_STREQ(traced.name(), inner.name());
    EXPECT_STREQ(traced.auditName(), inner.auditName());
    EXPECT_STREQ(traced.snapName(), inner.snapName());

    EXPECT_EQ(observeStream(traced), observeStream(reference));
    EXPECT_EQ(traced.calls(), 4096u);
    EXPECT_GT(traced.candidates(), 0u);
    EXPECT_GT(traced.ns(), 0);
    traced.audit();

    EXPECT_EQ(saved(traced), saved(inner));
    fdp::StreamPrefetcher restored{fdp::StreamPrefetcherParams{}};
    TracedPrefetcher tracedRestored(restored, nullptr);
    const std::vector<std::uint8_t> image = saved(traced);
    fdp::SnapReader r(image);
    tracedRestored.loadState(r);
    EXPECT_EQ(saved(restored), saved(inner));

    traced.reset();
    reference.reset();
    EXPECT_EQ(saved(inner), saved(reference));
}

TEST(TracedWorkload, ForwardsEveryVirtual)
{
    fdp::SyntheticWorkload inner(fdp::benchmarkParams("mcf"));
    fdp::SyntheticWorkload reference(fdp::benchmarkParams("mcf"));
    TracedWorkload traced(inner, nullptr);
    EXPECT_STREQ(traced.name(), "mcf");
    EXPECT_STREQ(traced.snapName(), inner.snapName());
    for (int i = 0; i < 1000; ++i) {
        const fdp::MicroOp a = traced.next();
        const fdp::MicroOp b = reference.next();
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.pc, b.pc);
        ASSERT_EQ(a.kind, b.kind);
    }
    EXPECT_EQ(traced.calls(), 1000u);
    EXPECT_EQ(saved(traced), saved(inner));

    fdp::SyntheticWorkload restored(fdp::benchmarkParams("mcf"));
    TracedWorkload tracedRestored(restored, nullptr);
    const std::vector<std::uint8_t> image = saved(inner);
    fdp::SnapReader r(image);
    tracedRestored.loadState(r);
    EXPECT_EQ(restored.next().addr, reference.next().addr);

    traced.reset();
    reference.reset();
    EXPECT_EQ(saved(inner), saved(reference));
    traced.audit();  // a generator is not auditable: a no-op
    EXPECT_STREQ(traced.auditName(), "traced-workload");
}

TEST(TracedMachine, EqualsLibraryCellsWithAuditsOn)
{
    // Audits on: every interval boundary audits the machine through
    // the decorators, as the library's own cells do.
    setenv("FDP_AUDIT", "1", 1);
    for (const char *pf : {"stream", "ghb", "manager"}) {
        fdp::RunConfig cfg =
            fdp::applyPrefetcherSelection(fdp::RunConfig::fullFdp(), pf);
        cfg.numInsts = 60'000;
        cfg.warmupInsts = 20'000;
        const fdp::RunResult lib = fdp::runBenchmark("art", cfg, pf);
        fdp::SyntheticWorkload w(fdp::benchmarkParams("art"));
        Tracer tracer;
        SimCounters counters;
        const fdp::RunResult traced =
            runTracedCell(w, cfg, pf, nullptr, &tracer, counters);
        EXPECT_TRUE(sameResult(lib, traced)) << pf;
        EXPECT_EQ(counters.retiredOps, 80'000u);
    }
    unsetenv("FDP_AUDIT");
}

class WorkloadPair : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadPair, ShortTracedRunIsBitIdentical)
{
    const std::string dir = "perfbench-test-" + GetParam();
    std::filesystem::create_directories(dir);
    WorkloadOptions o;
    o.workDir = dir;
    o.jobs = 2;
    o.scaleDown = 50;
    const auto wl = makeWorkload(GetParam(), o);
    wl->setup();
    CheckTally tally;
    EXPECT_GT(wl->rep(tally), 0u);
    wl->check(tally);
    Tracer tracer;
    SimCounters counters;
    const TracedPair p = wl->tracedPair(tracer, counters, tally);
    EXPECT_GT(tally.attempted(), 0u);
    EXPECT_EQ(tally.failed(), 0u);
    EXPECT_GT(p.tracedS, 0.0);
    EXPECT_FALSE(tracer.cells().empty());
    for (const Metric &m : wl->simulatedMetrics())
        EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadPair,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });
