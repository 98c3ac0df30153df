/**
 * @file
 * fdpsnap-v1 byte pins. The round-trip tests compare images within one
 * build; these compare them against hashes recorded once, so a change
 * to any component's field list that moves, widens, or drops a byte
 * fails here even when save and load still agree with each other.
 *
 * Each pin is the FNV-1a hash of a captureMachine body for swim after a
 * fixed run: one per prefetcher selection on the flat DRAM model, one
 * on the FR-FCFS controller, one with a prefetch cache, and the warm
 * image a sweep forks from. A pin may only change together with
 * kSnapVersion.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "harness/experiment.hh"
#include "harness/result_store.hh"
#include "harness/warm_fork.hh"
#include "snap/machine_snapshot.hh"
#include "workload/generators.hh"
#include "workload/spec_suite.hh"

namespace fdp
{
namespace
{

/** Hex FNV-1a of the body swim leaves after 60k micro-ops under
 *  @p config, drained and flushed. */
std::string
bodyHash(const RunConfig &config)
{
    SyntheticWorkload w(benchmarkParams("swim"));
    SimMachine m(w, config);
    m.run(60'000);
    drainToQuiesce(m.events, m.mem);
    m.mem.flushStats();
    const SnapshotImageBody body = captureMachine(m.parts());
    return hashHex(fnv1a64(std::string(body.bytes.begin(),
                                       body.bytes.end())));
}

RunConfig
pinConfig()
{
    RunConfig c = RunConfig::fullFdp();
    c.fdp.intervalEvictions = 1024;  // several intervals, manager ticks
    return c;
}

TEST(SnapshotBytes, FlatDramBodyPerPrefetcherIsPinned)
{
    const std::map<std::string, std::string> pins = {
        {"none", "087ec60f4cbb86f0"},
        {"stream", "31771edd285a5ced"},
        {"ghb", "4c2ad573d587cd75"},
        {"stride", "7677676f38bf6505"},
        {"vldp", "927d1e3cafb2d9c6"},
        {"dspatch", "6d30ea7719a6c30e"},
        {"nextline", "47733860b129c915"},
        {"manager", "e796ce4ed741b07c"},
    };
    ASSERT_EQ(pins.size(), knownPrefetcherNames().size());
    for (const std::string &name : knownPrefetcherNames()) {
        ASSERT_EQ(pins.count(name), 1u) << name;
        EXPECT_EQ(bodyHash(applyPrefetcherSelection(pinConfig(), name)),
                  pins.at(name))
            << name;
    }
}

TEST(SnapshotBytes, ControllerAndPrefetchCacheBodiesArePinned)
{
    RunConfig ctrl = pinConfig();
    ctrl.machine.dramCtrl.kind = DramKind::Controller;
    ctrl.machine.dramCtrl.channels = 4;
    ctrl.machine.dramCtrl.rowPolicy = RowPolicy::Adaptive;
    EXPECT_EQ(bodyHash(ctrl), "cda7d720c8c8f50c");

    RunConfig pcache = pinConfig();
    pcache.machine.prefetchCache.enabled = true;
    pcache.machine.prefetchCache.sizeBytes = 64 * 1024;
    EXPECT_EQ(bodyHash(pcache), "6a7f0ae3748599a3");
}

TEST(SnapshotBytes, WarmSnapshotBodyIsPinned)
{
    RunConfig c = RunConfig::fullFdp();
    c.numInsts = 50'000;
    c.warmupInsts = 60'000;
    const SnapshotImage image = captureWarmSnapshot("swim", c);
    EXPECT_EQ(hashHex(fnv1a64(std::string(image.body.begin(),
                                          image.body.end()))),
              "2935058395ca23b5");
}

} // namespace
} // namespace fdp
