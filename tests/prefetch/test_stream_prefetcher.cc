/**
 * @file
 * Unit tests for the stream prefetcher's 4-state tracking FSM and its
 * distance/degree behavior (paper Section 2.1, Table 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "prefetch/stream_prefetcher.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"

namespace fdp
{
namespace
{

PrefetchObservation
miss(BlockAddr block)
{
    return {blockBase(block), block, 0x1000, true};
}

PrefetchObservation
hit(BlockAddr block)
{
    return {blockBase(block), block, 0x1000, false};
}

/** Feed an ascending 3-miss training sequence starting at @p base. */
std::vector<BlockAddr>
train(StreamPrefetcher &pf, BlockAddr base)
{
    std::vector<BlockAddr> out;
    pf.observe(miss(base), out);
    pf.observe(miss(base + 1), out);
    pf.observe(miss(base + 2), out);
    return out;
}

TEST(StreamPrefetcher, NoPrefetchBeforeTraining)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(100), out);
    EXPECT_TRUE(out.empty());
    pf.observe(miss(101), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pf.numMonitoringStreams(), 0u);
}

TEST(StreamPrefetcher, ThirdConsistentMissTrains)
{
    StreamPrefetcher pf;
    const auto out = train(pf, 100);
    EXPECT_EQ(pf.numMonitoringStreams(), 1u);
    // Training issues the start-up window past the last miss.
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), 103u);
}

TEST(StreamPrefetcher, DescendingStreamTrains)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(200), out);
    pf.observe(miss(199), out);
    pf.observe(miss(198), out);
    EXPECT_EQ(pf.numMonitoringStreams(), 1u);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), 197u);
}

TEST(StreamPrefetcher, DirectionReversalRestartsTraining)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(100), out);
    pf.observe(miss(102), out);  // ascending...
    pf.observe(miss(99), out);   // ...then descending: retrain
    EXPECT_EQ(pf.numMonitoringStreams(), 0u);
    pf.observe(miss(97), out);  // consistent descending delta
    EXPECT_EQ(pf.numMonitoringStreams(), 1u);
}

TEST(StreamPrefetcher, MissOutsideWindowAllocatesNewStream)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(100), out);
    pf.observe(miss(100 + 17), out);  // outside the +/-16 train window
    // Two independent Allocated entries: train each separately.
    pf.observe(miss(101), out);
    pf.observe(miss(102), out);
    EXPECT_EQ(pf.numMonitoringStreams(), 1u);
}

TEST(StreamPrefetcher, MonitorRegionAccessIssuesDegreePrefetches)
{
    StreamPrefetcher pf;
    pf.setAggressiveness(5);  // distance 64, degree 4
    train(pf, 100);
    std::vector<BlockAddr> out;
    pf.observe(hit(103), out);  // inside the monitored region
    ASSERT_EQ(out.size(), 4u);
    // Contiguous ascending blocks past the current end pointer.
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_EQ(out[i], out[i - 1] + 1);
}

TEST(StreamPrefetcher, DegreeMatchesTable1)
{
    const unsigned want_degree[6] = {0, 1, 1, 2, 4, 4};
    for (unsigned level = 1; level <= 5; ++level) {
        StreamPrefetcher pf;
        pf.setAggressiveness(level);
        train(pf, 1000);
        std::vector<BlockAddr> out;
        pf.observe(hit(1001), out);
        EXPECT_EQ(out.size(), want_degree[level]) << "level " << level;
    }
}

TEST(StreamPrefetcher, StaysWithinPrefetchDistance)
{
    // Drive only the *trained* region repeatedly without consuming the
    // stream: the end pointer must stop running ahead once the monitored
    // region spans the prefetch distance.
    for (unsigned level = 1; level <= 5; ++level) {
        StreamPrefetcher pf;
        pf.setAggressiveness(level);
        train(pf, 500);
        std::set<BlockAddr> requested;
        for (int i = 0; i < 100; ++i) {
            std::vector<BlockAddr> out;
            pf.observe(hit(502), out);  // always the same demand block
            requested.insert(out.begin(), out.end());
        }
        ASSERT_FALSE(requested.empty());
        const BlockAddr max_block = *requested.rbegin();
        // P may not run more than distance ahead of the demand stream
        // (give 1 block of slack for the training start-up window).
        EXPECT_LE(max_block, 502 + pf.distance() + pf.degree() + 1)
            << "level " << level;
    }
}

TEST(StreamPrefetcher, ThrottlingDownShrinksRegion)
{
    StreamPrefetcher pf;
    pf.setAggressiveness(5);
    train(pf, 100);
    // Run the stream forward so the region spans distance 64.
    BlockAddr demand = 103;
    for (int i = 0; i < 64; ++i) {
        std::vector<BlockAddr> out;
        pf.observe(hit(demand), out);
        demand += 1;
    }
    pf.setAggressiveness(1);  // distance 4, degree 1
    // Keep walking: every prefetch issued from now on must stay within
    // the new (distance + degree) of the demand that triggered it.
    bool issued_any = false;
    for (int i = 0; i < 200; ++i) {
        std::vector<BlockAddr> out;
        pf.observe(hit(demand), out);
        for (const BlockAddr b : out) {
            issued_any = true;
            EXPECT_LE(b, demand + pf.distance() + pf.degree());
        }
        demand += 1;
    }
    EXPECT_TRUE(issued_any);
}

TEST(StreamPrefetcher, TracksManyStreamsUpToCapacity)
{
    StreamPrefetcherParams p;
    p.numStreams = 4;
    StreamPrefetcher pf(p);
    for (unsigned s = 0; s < 4; ++s)
        train(pf, 1000 + 100 * s);
    EXPECT_EQ(pf.numMonitoringStreams(), 4u);
    // A fifth stream evicts the LRU one.
    train(pf, 10000);
    EXPECT_EQ(pf.numMonitoringStreams(), 4u);
}

TEST(StreamPrefetcher, RepeatedMissOnSameBlockDoesNotTrain)
{
    StreamPrefetcher pf;
    std::vector<BlockAddr> out;
    pf.observe(miss(100), out);
    pf.observe(miss(100), out);
    pf.observe(miss(100), out);
    EXPECT_EQ(pf.numMonitoringStreams(), 0u);
}

TEST(StreamPrefetcher, ResetDropsAllStreams)
{
    StreamPrefetcher pf;
    train(pf, 100);
    pf.reset();
    EXPECT_EQ(pf.numMonitoringStreams(), 0u);
    std::vector<BlockAddr> out;
    pf.observe(hit(103), out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcherDeath, BadLevelPanics)
{
    StreamPrefetcher pf;
    EXPECT_DEATH(pf.setAggressiveness(0), "bad aggressiveness");
    EXPECT_DEATH(pf.setAggressiveness(6), "bad aggressiveness");
}

// Property: for every level, a long sequential walk gets fully covered
// by prefetch requests (no gaps in the requested block range).
class StreamCoverage : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(StreamCoverage, SequentialWalkIsFullyCovered)
{
    const unsigned level = GetParam();
    StreamPrefetcher pf;
    pf.setAggressiveness(level);
    std::set<BlockAddr> requested;
    const BlockAddr base = 1 << 20;
    for (BlockAddr b = base; b < base + 200; ++b) {
        std::vector<BlockAddr> out;
        pf.observe(miss(b), out);  // every block misses until covered
        requested.insert(out.begin(), out.end());
    }
    // Everything from the training point to the end of the walk must
    // have been requested.
    for (BlockAddr b = base + 3; b < base + 200; ++b)
        EXPECT_TRUE(requested.count(b)) << "gap at " << b - base;
}

INSTANTIATE_TEST_SUITE_P(AllLevels, StreamCoverage,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- Restore validation ----

/** A stream section with @p n entries, entry 0 given @p state/@p dir
 *  and the rest Invalid. */
std::vector<std::uint8_t>
streamSection(std::uint32_t n, std::uint8_t state, std::int64_t dir,
              std::uint64_t tick = 10, std::uint64_t lastUse = 5)
{
    SnapWriter w;
    w.beginSection("stream");
    w.putU8(kInitialAggrLevel);
    w.putU64(tick);
    w.putU32(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        w.putU8(i == 0 ? state : 0);
        w.putI64(i == 0 ? dir : 1);
        w.putI64(100);  // firstMiss
        w.putI64(101);  // lastMiss
        w.putI64(100);  // startPtr
        w.putI64(110);  // endPtr
        w.putU64(i == 0 ? lastUse : 0);
    }
    w.endSection();
    return w.bytes();
}

TEST(StreamPrefetcherRestore, SoundSectionRestores)
{
    StreamPrefetcherParams p;
    p.numStreams = 4;
    StreamPrefetcher pf(p);
    const auto bytes = streamSection(4, 3, 1);
    SnapReader r(bytes);
    pf.loadState(r);
    EXPECT_EQ(pf.entryState(0), StreamPrefetcher::State::MonitorRequest);
    EXPECT_EQ(pf.numMonitoringStreams(), 1u);
    pf.audit();
}

TEST(StreamPrefetcherRestore, LruTiesEvictTheLowestIndex)
{
    // Four Allocated entries stamped at the same tick, far apart: the
    // next unmatched miss must evict entry 0, as a first-minimum scan
    // over the table would.
    SnapWriter w;
    w.beginSection("stream");
    w.putU8(kInitialAggrLevel);
    w.putU64(10);
    w.putU32(4);
    for (std::int64_t i = 0; i < 4; ++i) {
        w.putU8(1);
        w.putI64(1);
        for (int f = 0; f < 4; ++f)
            w.putI64(1000 * (i + 1));
        w.putU64(5);
    }
    w.endSection();
    StreamPrefetcherParams p;
    p.numStreams = 4;
    StreamPrefetcher pf(p);
    SnapReader r(w.bytes());
    pf.loadState(r);
    std::vector<BlockAddr> out;
    pf.observe(miss(90000), out);  // evicts the LRU entry
    pf.observe(miss(90001), out);  // trains whichever entry it took
    EXPECT_EQ(pf.entryState(0), StreamPrefetcher::State::Training);
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(pf.entryState(i), StreamPrefetcher::State::Allocated);
    pf.audit();
}

TEST(StreamPrefetcherRestoreDeath, StateOutsideFsmIsFatal)
{
    StreamPrefetcherParams p;
    p.numStreams = 4;
    StreamPrefetcher pf(p);
    const auto bytes = streamSection(4, 4, 1);
    SnapReader r(bytes);
    EXPECT_DEATH(pf.loadState(r), "outside the tracking FSM");
}

TEST(StreamPrefetcherRestoreDeath, TrainedZeroDirectionIsFatal)
{
    StreamPrefetcherParams p;
    p.numStreams = 4;
    StreamPrefetcher pf(p);
    const auto bytes = streamSection(4, 2, 0);
    SnapReader r(bytes);
    EXPECT_DEATH(pf.loadState(r), "has direction 0");
}

TEST(StreamPrefetcherRestoreDeath, MonitoringWideDirectionIsFatal)
{
    StreamPrefetcherParams p;
    p.numStreams = 4;
    StreamPrefetcher pf(p);
    const auto bytes = streamSection(4, 3, 2);
    SnapReader r(bytes);
    EXPECT_DEATH(pf.loadState(r), "has direction 2");
}

TEST(StreamPrefetcherRestoreDeath, FutureLruStampIsFatal)
{
    StreamPrefetcherParams p;
    p.numStreams = 4;
    StreamPrefetcher pf(p);
    const auto bytes = streamSection(4, 1, 1, 10, 11);
    SnapReader r(bytes);
    EXPECT_DEATH(pf.loadState(r), "after the prefetcher's tick");
}

// ---- Golden equivalence with the linear-scan stream table ----

/**
 * The stream table as it was before its indexes: every lookup scans all
 * entries in index order — the monitor scans, the training-window scan
 * (first Allocated/Training match wins) and the LRU victim scan (first
 * Invalid entry, else the first minimum lastUse). The indexed
 * StreamPrefetcher must reproduce its candidates and entry states
 * exactly; this is the executable spec pinning the rewrite.
 */
class ReferenceStream
{
  public:
    explicit ReferenceStream(const StreamPrefetcherParams &p)
        : p_(p), level_(p.initialLevel), entries_(p.numStreams)
    {
    }

    void setAggressiveness(unsigned level) { level_ = level; }

    void
    reset()
    {
        for (Entry &e : entries_)
            e = Entry{};
        tick_ = 0;
    }

    StreamPrefetcher::State
    state(unsigned i) const
    {
        return entries_[i].state;
    }

    unsigned
    numMonitoring() const
    {
        return static_cast<unsigned>(std::count_if(
            entries_.begin(), entries_.end(), [](const Entry &e) {
                return e.state == State::MonitorRequest;
            }));
    }

    void
    observe(const PrefetchObservation &obs, std::vector<BlockAddr> &out,
            std::size_t budget)
    {
        const auto block = static_cast<std::int64_t>(obs.block);
        ++tick_;
        const auto w = static_cast<std::int64_t>(p_.trainWindow);
        for (Entry &e : entries_) {
            if (e.state != State::MonitorRequest)
                continue;
            if (block >= std::min(e.startPtr, e.endPtr) &&
                block <= std::max(e.startPtr, e.endPtr)) {
                e.lastUse = tick_;
                issue(e, out, budget);
                return;
            }
            const std::int64_t front =
                e.dir > 0 ? std::max(e.startPtr, e.endPtr)
                          : std::min(e.startPtr, e.endPtr);
            const std::int64_t overshoot = (block - front) * e.dir;
            if (obs.miss && overshoot > 0 && overshoot <= w) {
                e.lastUse = tick_;
                ramp(e, block, block, out, budget);
                return;
            }
        }
        if (!obs.miss)
            return;
        for (Entry &e : entries_) {
            if (e.state != State::MonitorRequest)
                continue;
            if (block >= std::min(e.startPtr, e.endPtr) - w &&
                block <= std::max(e.startPtr, e.endPtr) + w) {
                e.lastUse = tick_;
                return;
            }
        }
        for (Entry &e : entries_) {
            if (e.state != State::Allocated && e.state != State::Training)
                continue;
            if (std::llabs(block - e.firstMiss) > w)
                continue;
            e.lastUse = tick_;
            if (block == e.firstMiss || block == e.lastMiss)
                return;
            if (e.state == State::Allocated) {
                e.dir = block > e.firstMiss ? 1 : -1;
                e.lastMiss = block;
                e.state = State::Training;
                return;
            }
            const int dir2 = block > e.lastMiss ? 1 : -1;
            if (dir2 != e.dir) {
                e.dir = block > e.firstMiss ? 1 : -1;
                e.lastMiss = block;
                return;
            }
            e.state = State::MonitorRequest;
            ramp(e, e.firstMiss, block, out, budget);
            return;
        }
        unsigned victim = 0;
        for (unsigned i = 0; i < entries_.size(); ++i) {
            if (entries_[i].state == State::Invalid) {
                victim = i;
                break;
            }
            if (entries_[i].lastUse < entries_[victim].lastUse)
                victim = i;
        }
        Entry &e = entries_[victim];
        e = Entry{};
        e.state = State::Allocated;
        e.firstMiss = block;
        e.lastMiss = block;
        e.lastUse = tick_;
    }

  private:
    using State = StreamPrefetcher::State;

    struct Entry
    {
        State state = State::Invalid;
        int dir = 1;
        std::int64_t firstMiss = 0;
        std::int64_t lastMiss = 0;
        std::int64_t startPtr = 0;
        std::int64_t endPtr = 0;
        std::uint64_t lastUse = 0;
    };

    unsigned
    effectiveDistance() const
    {
        unsigned active = 0;
        for (const Entry &e : entries_)
            if (e.state == State::MonitorRequest &&
                tick_ - e.lastUse <= p_.activityWindow)
                ++active;
        const unsigned degree = kStreamAggrTable[level_].degree;
        const unsigned share =
            std::max(degree, p_.queueShareBudget / std::max(1u, active));
        return std::min(kStreamAggrTable[level_].distance, share);
    }

    void
    issue(Entry &e, std::vector<BlockAddr> &out, std::size_t budget)
    {
        const std::int64_t n = std::min<std::int64_t>(
            kStreamAggrTable[level_].degree,
            static_cast<std::int64_t>(
                std::min<std::size_t>(budget, kMaxAggrLevel * 64)));
        const std::int64_t dist = effectiveDistance();
        if (n == 0)
            return;
        if (std::llabs(e.endPtr - e.startPtr) > dist)
            e.endPtr = e.startPtr + e.dir * dist;
        for (std::int64_t i = 1; i <= n; ++i) {
            const std::int64_t b = e.endPtr + e.dir * i;
            if (b < 0)
                break;
            out.push_back(static_cast<BlockAddr>(b));
        }
        const std::int64_t size = std::llabs(e.endPtr - e.startPtr);
        e.endPtr += e.dir * n;
        if (size >= dist)
            e.startPtr += e.dir * n;
    }

    void
    ramp(Entry &e, std::int64_t regionStart, std::int64_t rampFrom,
         std::vector<BlockAddr> &out, std::size_t budget)
    {
        const std::int64_t startup = std::min<std::int64_t>(
            effectiveDistance(),
            static_cast<std::int64_t>(std::min<std::size_t>(budget, 64)));
        e.startPtr = regionStart;
        for (std::int64_t i = 1; i <= startup; ++i) {
            const std::int64_t pf = rampFrom + e.dir * i;
            if (pf < 0)
                break;
            out.push_back(static_cast<BlockAddr>(pf));
        }
        e.endPtr = rampFrom + e.dir * startup;
    }

    StreamPrefetcherParams p_;
    unsigned level_;
    std::vector<Entry> entries_;
    std::uint64_t tick_ = 0;
};

class StreamGoldenEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(StreamGoldenEquivalence, MatchesLinearScanTableUnderFuzzing)
{
    const auto [streams, window] = GetParam();
    StreamPrefetcherParams p;
    p.numStreams = streams;
    p.trainWindow = window;
    auto opt = std::make_unique<StreamPrefetcher>(p);
    ReferenceStream ref(p);
    Rng rng(streams * 131 + window * 17 + 3);

    // 96 live stream cursors (more than the table holds, so entries are
    // evicted), each walking a short run up or down from a random base
    // before it restarts elsewhere; 1 in 10 accesses is a stray miss and
    // about 1 in 10 lands near a moving hotspot.
    struct Cursor
    {
        std::int64_t block;
        int dir;
        unsigned left;
    };
    const auto respawn = [&rng](Cursor &c) {
        c.block = static_cast<std::int64_t>(rng.range(1 << 16)) * 64 + 32;
        c.dir = rng.chance(0.5) ? 1 : -1;
        c.left = 4 + static_cast<unsigned>(rng.range(40));
    };
    std::vector<Cursor> cursors(96);
    for (Cursor &c : cursors)
        respawn(c);

    BlockAddr hotspot = 0;
    const std::size_t budgets[] = {0, 1, 3, 16, Prefetcher::kUnlimited};
    constexpr int kSteps = 60000;
    for (int step = 0; step < kSteps; ++step) {
        if (step == kSteps / 2) {
            // Restore the indexed table into a fresh object mid-run.
            SnapWriter w;
            opt->saveState(w);
            opt = std::make_unique<StreamPrefetcher>(p);
            SnapReader r(w.bytes());
            opt->loadState(r);
            opt->audit();
        }
        if (step % 997 == 0) {
            const unsigned level =
                kMinAggrLevel + static_cast<unsigned>(rng.range(5));
            opt->setAggressiveness(level);
            ref.setAggressiveness(level);
        }
        if (step == 20011) {
            opt->reset();
            ref.reset();
        }

        if (step % 211 == 0)
            hotspot = rng.range(1 << 22);
        BlockAddr block;
        if (rng.chance(0.1)) {
            block = rng.range(1 << 22);
        } else if (rng.chance(0.1)) {
            // Scattered misses around a hotspot allocate entries within
            // one another's training windows: the lowest index must win.
            block = hotspot + rng.range(3 * window + 8);
        } else {
            Cursor &c = cursors[rng.range(cursors.size())];
            c.block += c.dir * (rng.chance(0.15) ? 2 : 1);
            if (c.block < 0 || --c.left == 0)
                respawn(c);
            block = static_cast<BlockAddr>(c.block);
        }
        const PrefetchObservation obs{blockBase(block), block, 0x1000,
                                      rng.chance(0.7)};
        const std::size_t budget = budgets[rng.range(std::size(budgets))];
        std::vector<BlockAddr> got, want;
        opt->observe(obs, got, budget);
        ref.observe(obs, want, budget);
        ASSERT_EQ(got, want) << "step " << step;
        ASSERT_EQ(opt->numMonitoringStreams(), ref.numMonitoring())
            << "step " << step;
        if (step % 512 == 0) {
            for (unsigned i = 0; i < streams; ++i)
                ASSERT_EQ(opt->entryState(i), ref.state(i))
                    << "step " << step << " entry " << i;
            opt->audit();
        }
    }
    opt->audit();
}

INSTANTIATE_TEST_SUITE_P(
    Tables, StreamGoldenEquivalence,
    ::testing::Values(std::tuple{64u, 16u}, std::tuple{16u, 16u},
                      std::tuple{64u, 4u}, std::tuple{7u, 33u},
                      std::tuple{64u, 0u}));

} // namespace
} // namespace fdp
