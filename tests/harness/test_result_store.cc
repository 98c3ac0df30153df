/**
 * @file
 * Tests for the content-addressed sweep result store: key composition
 * and stability, exact JSON round-trips, defensive reads (truncation,
 * corruption, collisions all read as misses, never crashes), and the
 * headline property — a resumed sweep's results are bit-identical to a
 * cold run's at any --jobs value.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/result_store.hh"
#include "harness/sweep_pool.hh"
#include "snap/machine_snapshot.hh"
#include "support/same_results.hh"

namespace fdp
{
namespace
{

/** Fresh store directory per test (gtest's TempDir persists). */
std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::remove((dir + "/.placeholder").c_str());
    // Entries left by a previous run of the suite would otherwise leak
    // into entryFiles(): keys change whenever the config fingerprint
    // grows a field, so stale files stop being overwritten in place.
    const ResultStore sweeper(dir);
    for (const std::string &f : sweeper.entryFiles())
        sweeper.removeEntry(f);
    return dir;
}

RunConfig
quickConfig(std::uint64_t insts = 50'000)
{
    RunConfig c = RunConfig::fullFdp();
    c.numInsts = insts;
    return c;
}

RunResult
denseResult()
{
    RunResult r;
    r.benchmark = "swim";
    r.config = "fdp";
    r.insts = 123456789;
    r.cycles = 987654321;
    r.ipc = 1.0 / 3.0;  // not exactly representable in decimal
    r.bpki = 14.07;
    r.accuracy = 0.9610639938319198;
    r.lateness = 0.7079823505816285;
    r.pollution = 0.001;
    r.prefSent = 11;
    r.prefUsed = 7;
    r.busAccesses = 2814;
    r.l2Misses = 42;
    r.demandAccesses = 1000;
    r.demandGrants = 900;
    r.prefetchGrants = 80;
    r.writebackGrants = 20;
    r.mshrStallCount = 5;
    r.prefDropQueueFull = 3;
    r.avgMissLatency = 5174.480135658915;
    for (int i = 0; i < 5; ++i)
        r.levelDist[i] = 0.1 * (i + 1) / 1.5;
    for (int i = 0; i < 4; ++i)
        r.insertDist[i] = 0.25 + i * 1e-17;
    return r;
}

TEST(StoreKey, StableAcrossCallsAndSensitiveToEveryInput)
{
    const RunConfig config = quickConfig();
    const StoreKey a = makeStoreKey("swim", config, "fdp");
    const StoreKey b = makeStoreKey("swim", config, "fdp");
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.canonical, b.canonical);
    EXPECT_EQ(a.fileName(), hashHex(a.hash) + ".json");

    // Benchmark, label, and any config knob must all change the key.
    EXPECT_NE(makeStoreKey("art", config, "fdp").hash, a.hash);
    EXPECT_NE(makeStoreKey("swim", config, "no-pf").hash, a.hash);
    RunConfig tweaked = config;
    tweaked.machine.l2.sizeBytes *= 2;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, a.hash);
    tweaked = config;
    tweaked.numInsts += 1;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, a.hash);
    tweaked = config;
    tweaked.fdp.thresholds.aHigh += 1e-9;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, a.hash);
}

TEST(StoreKey, SensitiveToPrefetcherAndManagerConfig)
{
    const RunConfig config = quickConfig();
    const StoreKey base = makeStoreKey("swim", config, "fdp");

    // Prefetcher type is part of the cell's identity.
    RunConfig tweaked = config;
    tweaked.prefetcher = PrefetcherKind::Vldp;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, base.hash);

    // So is turning the runtime manager on...
    RunConfig managed = config;
    managed.manager = ManagerKind::Explore;
    const StoreKey managedKey = makeStoreKey("swim", managed, "fdp");
    EXPECT_NE(managedKey.hash, base.hash);

    // ...and every scheduling knob of the manager itself.
    tweaked = managed;
    tweaked.managerParams.exploreIntervals += 1;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, managedKey.hash);
    tweaked = managed;
    tweaked.managerParams.exploitIntervals += 1;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, managedKey.hash);
    tweaked = managed;
    tweaked.managerParams.hysteresisPct += 0.5;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, managedKey.hash);
    tweaked = managed;
    tweaked.managerParams.reexploreDropPct += 0.5;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, managedKey.hash);

    // A non-default zoo names a different cell.
    tweaked = managed;
    tweaked.managerZoo = {PrefetcherKind::Stream, PrefetcherKind::Vldp};
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, managedKey.hash);

    // But spelling out the default zoo explicitly is the SAME cell: the
    // fingerprint covers the effective zoo, not the spelling.
    tweaked = managed;
    tweaked.managerZoo = defaultManagerZoo();
    EXPECT_EQ(makeStoreKey("swim", tweaked, "fdp").hash, managedKey.hash);
}

TEST(StoreKey, SensitiveToEveryDramControllerKnob)
{
    const RunConfig config = quickConfig();
    const StoreKey flat = makeStoreKey("swim", config, "fdp");

    // Switching the flat bus for the FR-FCFS controller names a
    // different cell...
    RunConfig ctrl = config;
    ctrl.machine.dramCtrl.kind = DramKind::Controller;
    const StoreKey ctrlKey = makeStoreKey("swim", ctrl, "fdp");
    EXPECT_NE(ctrlKey.hash, flat.hash);
    EXPECT_NE(ctrlKey.canonical.find("dramctl{"), std::string::npos);

    // ...and so does every controller knob, each on its own.
    RunConfig tweaked = ctrl;
    tweaked.machine.dramCtrl.channels *= 2;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, ctrlKey.hash);
    tweaked = ctrl;
    tweaked.machine.dramCtrl.rowPolicy = RowPolicy::Closed;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, ctrlKey.hash);
    tweaked = ctrl;
    tweaked.machine.dramCtrl.fdpPriority = !ctrl.machine.dramCtrl.fdpPriority;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, ctrlKey.hash);
    tweaked = ctrl;
    tweaked.machine.dramCtrl.lowTierDropAt += 1;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, ctrlKey.hash);
    tweaked = ctrl;
    tweaked.machine.dramCtrl.qosInFlightCap += 1;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, ctrlKey.hash);
    tweaked = ctrl;
    tweaked.machine.dramCtrl.qosWeighted = !ctrl.machine.dramCtrl.qosWeighted;
    EXPECT_NE(makeStoreKey("swim", tweaked, "fdp").hash, ctrlKey.hash);
}

TEST(StoreKey, TellsApartBusRatesThatRoundAlikeAtSixDigits)
{
    // 4.491232 and 4.491224 GB/s both print as 1.12281 B/cycle at the
    // default six digits, yet move a block in 57 vs 58 cycles.
    RunConfig a = quickConfig();
    RunConfig b = quickConfig();
    a.machine.dram.busBytesPerCycle = 4.491232 / 4.0;
    b.machine.dram.busBytesPerCycle = 4.491224 / 4.0;
    EXPECT_NE(machineGeometry(a.machine, a.core),
              machineGeometry(b.machine, b.core));
    EXPECT_NE(makeStoreKey("swim", a, "fdp").canonical,
              makeStoreKey("swim", b, "fdp").canonical);
    // The default rate prints as it always has, so saved default
    // images keep matching.
    EXPECT_NE(machineGeometry(MachineParams{}, CoreParams{})
                  .find(",bus=1.125,"),
              std::string::npos);
}

TEST(StoreKey, CanonicalStringNamesItsComponents)
{
    const StoreKey key = makeStoreKey("swim", quickConfig(), "fdp");
    EXPECT_NE(key.canonical.find("fdp-store-v1"), std::string::npos);
    EXPECT_NE(key.canonical.find("bench=swim"), std::string::npos);
    EXPECT_NE(key.canonical.find("label=fdp"), std::string::npos);
    EXPECT_NE(key.canonical.find("rev="), std::string::npos);
    EXPECT_NE(key.canonical.find(
                  "simcore=" + std::to_string(kSimCoreVersion)),
              std::string::npos);
}

TEST(StoreKey, WorkloadTraceHashDependsOnBenchmarkAndLength)
{
    const std::uint64_t swim = workloadTraceHash("swim", 1000);
    EXPECT_EQ(swim, workloadTraceHash("swim", 1000));
    EXPECT_NE(swim, workloadTraceHash("art", 1000));
    EXPECT_NE(swim, workloadTraceHash("swim", 1001));
}

TEST(ResultStore, RoundTripIsExact)
{
    const ResultStore store(freshDir("store_roundtrip"));
    const StoreKey key = makeStoreKey("swim", quickConfig(), "fdp");
    const RunResult in = denseResult();
    store.insert(key, in);

    RunResult out;
    ASSERT_TRUE(store.lookup(key, &out));
    // Bit-exact doubles: the store prints max_digits10.
    expectBitIdentical(out, in);
}

TEST(ResultStore, EntryBytesMatchTheRecordedWriterOutput)
{
    // Entries already on disk keep hitting only while the writer
    // produces exactly these bytes.
    ASSERT_EQ(setenv("FDP_BINARY_REV", "golden", 1), 0);
    StoreKey key;
    key.benchmark = "swim";
    key.configLabel = "fdp";
    key.canonical = "fdp-store-v1 bench=swim label=fdp";
    const std::string json = storeEntryJson(key, denseResult());
    ASSERT_EQ(unsetenv("FDP_BINARY_REV"), 0);
    EXPECT_EQ(json, R"json({
  "schema": "fdp-store-v1",
  "canonical": "fdp-store-v1 bench=swim label=fdp",
  "benchmark": "swim",
  "config": "fdp",
  "binary_rev": "golden",
  "sim_core_version": 1,
  "result": {
    "benchmark": "swim",
    "config": "fdp",
    "insts": 123456789,
    "cycles": 987654321,
    "ipc": 0.33333333333333331,
    "bpki": 14.07,
    "accuracy": 0.96106399383191976,
    "lateness": 0.70798235058162851,
    "pollution": 0.001,
    "pref_sent": 11,
    "pref_used": 7,
    "bus_accesses": 2814,
    "l2_misses": 42,
    "demand_accesses": 1000,
    "demand_grants": 900,
    "prefetch_grants": 80,
    "writeback_grants": 20,
    "mshr_stall_count": 5,
    "pref_drop_queue_full": 3,
    "avg_miss_latency": 5174.4801356589151,
    "level_dist": [0.066666666666666666, 0.13333333333333333, 0.20000000000000004, 0.26666666666666666, 0.33333333333333331],
    "insert_dist": [0.25, 0.25, 0.25, 0.25000000000000006]
  }
}
)json");
}

TEST(ResultStore, ControlCharactersInLabelAndRevisionResumeAsAHit)
{
    // Every string in an entry goes through the full JSON escaper, so
    // a newline or tab in the label or the revision reads back intact.
    ASSERT_EQ(setenv("FDP_BINARY_REV", "rev\none\tb", 1), 0);
    const std::string dir = freshDir("store_escapes");
    const std::string label = "fdp\nlabel\twith tab";
    const std::vector<LabeledConfig> cfgs = {{label, quickConfig(20'000)}};
    const auto cold = runSweep({"swim"}, cfgs, 1, {dir, false});
    testing::internal::CaptureStderr();
    const auto warm = runSweep({"swim"}, cfgs, 1, {dir, true});
    const std::string err = testing::internal::GetCapturedStderr();

    const ResultStore store(dir);
    const std::vector<std::string> files = store.entryFiles();
    StoreEntry entry;
    std::string error;
    const bool read =
        files.size() == 1 && store.readEntry(files.front(), &entry, &error);
    ASSERT_EQ(unsetenv("FDP_BINARY_REV"), 0);
    ASSERT_TRUE(read) << files.size() << " entries; " << error;

    EXPECT_NE(err.find("hits=1 misses=0"), std::string::npos) << err;
    EXPECT_EQ(err.find("corrupt"), std::string::npos) << err;
    EXPECT_EQ(entry.binaryRev, "rev\none\tb");
    EXPECT_EQ(entry.configLabel, label);
    EXPECT_EQ(warm[0][0].config, label);
    expectBitIdentical(warm, cold);
}

TEST(ResultStore, AbsentEntryIsAQuietMiss)
{
    const ResultStore store(freshDir("store_miss"));
    RunResult out;
    EXPECT_FALSE(store.lookup(makeStoreKey("swim", quickConfig(), "fdp"),
                              &out));
}

TEST(ResultStore, TruncatedEntryReadsAsMissAndReinsertHeals)
{
    const ResultStore store(freshDir("store_truncated"));
    const StoreKey key = makeStoreKey("swim", quickConfig(), "fdp");
    store.insert(key, denseResult());

    // Truncate the entry mid-document (a killed sweep, a bad disk).
    const std::string path = store.dir() + "/" + key.fileName();
    {
        std::ifstream is(path);
        std::stringstream ss;
        ss << is.rdbuf();
        const std::string full = ss.str();
        std::ofstream os(path, std::ios::trunc);
        os << full.substr(0, full.size() / 2);
    }

    RunResult out;
    EXPECT_FALSE(store.lookup(key, &out));  // miss, not a crash

    // A rerun overwrites the corpse and the store is healthy again.
    store.insert(key, denseResult());
    EXPECT_TRUE(store.lookup(key, &out));
    expectBitIdentical(out, denseResult());
}

TEST(ResultStore, CanonicalMismatchReadsAsMiss)
{
    // Simulate a hash collision (or file-name tampering) by renaming a
    // valid entry to a different key's slot: the canonical string
    // stored inside no longer matches, so lookup must miss.
    const ResultStore store(freshDir("store_collision"));
    const StoreKey a = makeStoreKey("swim", quickConfig(), "fdp");
    const StoreKey b = makeStoreKey("art", quickConfig(), "fdp");
    store.insert(a, denseResult());
    ASSERT_EQ(std::rename((store.dir() + "/" + a.fileName()).c_str(),
                          (store.dir() + "/" + b.fileName()).c_str()),
              0);
    RunResult out;
    EXPECT_FALSE(store.lookup(b, &out));
}

/** Replace the value of @p field (its last occurrence, so the result
 *  object's copy of benchmark/config) in @p key's entry with @p value. */
void
tamperEntry(const ResultStore &store, const StoreKey &key,
            const std::string &field, const std::string &value)
{
    const std::string path = store.dir() + "/" + key.fileName();
    std::stringstream ss;
    ss << std::ifstream(path).rdbuf();
    std::string text = ss.str();
    const std::string tag = "\"" + field + "\": ";
    const std::size_t from = text.rfind(tag) + tag.size();
    const std::size_t to =
        text[from] == '[' ? text.find(']', from) + 1
        : text[from] == '"' ? text.find('"', from + 1) + 1
                            : text.find_first_of(",\n", from);
    text.replace(from, to - from, value);
    std::ofstream(path, std::ios::trunc) << text;
}

/**
 * A fresh entry with @p field rewritten to @p value must read as a
 * corrupt miss that names the field: lookup warns and misses (so the
 * cell reruns), readEntry rejects it (so `fdp_results ls` counts it
 * corrupt and `gc` drops it), and reinserting heals the entry.
 */
void
expectTamperedEntryMisses(const std::string &field, const std::string &value)
{
    SCOPED_TRACE(field + ": " + value);
    // One directory per test: ctest runs the tests in parallel.
    const ResultStore store(freshDir(
        std::string("store_tamper_") +
        testing::UnitTest::GetInstance()->current_test_info()->name()));
    const StoreKey key = makeStoreKey("swim", quickConfig(), "fdp");
    store.insert(key, denseResult());
    tamperEntry(store, key, field, value);

    RunResult out;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(store.lookup(key, &out));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("is corrupt (field " + field + " is not"),
              std::string::npos)
        << err;
    StoreEntry entry;
    std::string error;
    EXPECT_FALSE(store.readEntry(key.fileName(), &entry, &error));
    EXPECT_NE(error.find("field " + field + " is not"), std::string::npos)
        << error;

    store.insert(key, denseResult());
    ASSERT_TRUE(store.lookup(key, &out));
    expectBitIdentical(out, denseResult());
}

TEST(ResultStore, NegativeOrOversizedCounterReadsAsMiss)
{
    expectTamperedEntryMisses("insts", "-7");
    expectTamperedEntryMisses("cycles", "18446744073709551609");
    // 2^53 + 2: exact as a double, but past the exactly-held integers.
    expectTamperedEntryMisses("bus_accesses", "9007199254740994");
    expectTamperedEntryMisses("pref_sent", "1.5");
    expectTamperedEntryMisses("l2_misses", "1e999");
}

TEST(ResultStore, WrongKindFieldReadsAsMiss)
{
    expectTamperedEntryMisses("ipc", "\"fast\"");
    expectTamperedEntryMisses("cycles", "true");
    expectTamperedEntryMisses("benchmark", "7");
    expectTamperedEntryMisses("config", "null");
    expectTamperedEntryMisses("level_dist", "0.5");
    expectTamperedEntryMisses("binary_rev", "[]");
    expectTamperedEntryMisses("canonical", "{}");
}

TEST(ResultStore, NegativeOrNonFiniteDoubleReadsAsMiss)
{
    expectTamperedEntryMisses("accuracy", "-0.5");
    expectTamperedEntryMisses("avg_miss_latency", "1e999");
    expectTamperedEntryMisses("bpki", "-1e999");
    expectTamperedEntryMisses("insert_dist", "[0.25, 0.25, -0.5, 1]");
}

TEST(ResultStore, WrongLengthDistributionReadsAsMiss)
{
    expectTamperedEntryMisses("level_dist", "[0.2, 0.2, 0.2, 0.4]");
    expectTamperedEntryMisses("insert_dist", "[0.25, 0.25, 0.25, 0.25, 0]");
    expectTamperedEntryMisses("insert_dist", "[]");
}

TEST(ResultStore, BadSimCoreVersionReadsAsMiss)
{
    expectTamperedEntryMisses("sim_core_version", "\"1\"");
    expectTamperedEntryMisses("sim_core_version", "-1");
    expectTamperedEntryMisses("sim_core_version", "1.5");

    // A well-formed version other than the one in the key string is a
    // tampered entry too: lookup misses, but `ls` still lists it.
    const ResultStore store(freshDir("store_version"));
    const StoreKey key = makeStoreKey("swim", quickConfig(), "fdp");
    store.insert(key, denseResult());
    tamperEntry(store, key, "sim_core_version",
                std::to_string(kSimCoreVersion + 1));
    RunResult out;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(store.lookup(key, &out));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("does not match its key"), std::string::npos) << err;
    StoreEntry entry;
    std::string error;
    ASSERT_TRUE(store.readEntry(key.fileName(), &entry, &error)) << error;
    EXPECT_EQ(entry.simCoreVersion, kSimCoreVersion + 1);
}

TEST(ResultStore, EntryFilesListsAndReadEntryDecodes)
{
    const ResultStore store(freshDir("store_ls"));
    const StoreKey key = makeStoreKey("swim", quickConfig(), "fdp");
    store.insert(key, denseResult());

    const std::vector<std::string> files = store.entryFiles();
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files.front(), key.fileName());

    StoreEntry entry;
    std::string error;
    ASSERT_TRUE(store.readEntry(files.front(), &entry, &error)) << error;
    EXPECT_EQ(entry.benchmark, "swim");
    EXPECT_EQ(entry.configLabel, "fdp");
    EXPECT_EQ(entry.simCoreVersion, kSimCoreVersion);
    EXPECT_EQ(entry.canonical, key.canonical);
}

TEST(ResultStore, CopyEntryToMergesAndRemoveEntryDeletes)
{
    const ResultStore src(freshDir("store_merge_src"));
    const ResultStore dst(freshDir("store_merge_dst"));
    const StoreKey key = makeStoreKey("swim", quickConfig(), "fdp");
    src.insert(key, denseResult());

    std::string error;
    ASSERT_TRUE(src.copyEntryTo(key.fileName(), dst, &error)) << error;
    RunResult out;
    EXPECT_TRUE(dst.lookup(key, &out));

    dst.removeEntry(key.fileName());
    EXPECT_FALSE(dst.lookup(key, &out));
    dst.removeEntry(key.fileName());  // second delete is a no-op
}

TEST(ResultStoreSweep, ResumeIsBitIdenticalToColdRunAcrossJobs)
{
    const std::vector<std::string> benches = {"swim", "art"};
    const std::vector<LabeledConfig> configs = {
        {"fdp", quickConfig()},
        {"no-pf", RunConfig::noPrefetching()},
    };
    // Keep the no-prefetching column cheap too.
    std::vector<LabeledConfig> cfgs = configs;
    cfgs[1].second.numInsts = 50'000;

    // Cold reference, no store attached.
    const auto cold = runSweep(benches, cfgs, 2);

    // Seed the store with half the cells (one config column).
    const std::string dir = freshDir("store_resume");
    runSweep(benches, {cfgs[0]}, 1, {dir, false});

    // Resume fills the other half; every result field must be
    // bit-identical to the cold run at jobs=1 and jobs=4.
    const SweepStoreConfig resume = {dir, true};
    expectBitIdentical(runSweep(benches, cfgs, 1, resume), cold);
    expectBitIdentical(runSweep(benches, cfgs, 4, resume), cold);

    // And a fully-warm resume (every cell cached) still matches.
    expectBitIdentical(runSweep(benches, cfgs, 2, resume), cold);
}

TEST(SweepStoreArgs, ParseAndValidation)
{
    {
        const char *argv[] = {"prog", "--store", "/tmp/s", "--resume"};
        const SweepStoreConfig c =
            parseSweepArgs(4, const_cast<char **>(argv), 1).store;
        EXPECT_EQ(c.dir, "/tmp/s");
        EXPECT_TRUE(c.resume);
        EXPECT_TRUE(c.enabled());
    }
    {
        const char *argv[] = {"prog"};
        const SweepStoreConfig c =
            parseSweepArgs(1, const_cast<char **>(argv), 1).store;
        EXPECT_FALSE(c.enabled());
        EXPECT_FALSE(c.resume);
    }
}

TEST(SweepStoreArgsDeath, TrailingStoreFlagDies)
{
    const char *argv[] = {"prog", "--store"};
    EXPECT_EXIT(parseSweepArgs(2, const_cast<char **>(argv), 1),
                testing::ExitedWithCode(1), "--store requires");
}

TEST(SweepStoreArgsDeath, ResumeWithoutStoreDies)
{
    const char *argv[] = {"prog", "--resume"};
    EXPECT_EXIT(parseSweepArgs(2, const_cast<char **>(argv), 1),
                testing::ExitedWithCode(1), "--resume needs --store");
}

} // namespace
} // namespace fdp
