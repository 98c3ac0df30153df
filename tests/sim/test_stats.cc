/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace fdp
{
namespace
{

TEST(ScalarStat, CountsAndResets)
{
    StatGroup g("g");
    ScalarStat s(g, "events", "test events");
    EXPECT_EQ(s.value(), 0u);
    ++s;
    ++s;
    s += 10;
    EXPECT_EQ(s.value(), 12u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(ScalarStat, NamedCounterIsReadResetAndRestoredInPlace)
{
    // The component increments its own counter; the statistic reads,
    // zeroes, dumps and restores that counter, never a copy of it.
    std::uint64_t counter = 0;
    StatGroup g("g");
    ScalarStat s(g, "events", "test events", counter);
    counter += 7;
    EXPECT_EQ(s.value(), 7u);
    ++s;
    EXPECT_EQ(counter, 8u);
    std::ostringstream out;
    g.dump(out);
    EXPECT_NE(out.str().find("8  # test events"), std::string::npos);

    SnapWriter w;
    g.saveState(w);
    g.resetAll();
    EXPECT_EQ(counter, 0u);
    SnapReader r(w.bytes());
    g.loadState(r);
    EXPECT_EQ(counter, 8u);
}

TEST(ScalarStat, RegistersWithGroup)
{
    StatGroup g("g");
    ScalarStat a(g, "a", "");
    ScalarStat b(g, "b", "");
    ASSERT_EQ(g.scalars().size(), 2u);
    EXPECT_EQ(g.scalars()[0]->name(), "a");
    EXPECT_EQ(g.scalars()[1]->name(), "b");
}

TEST(DistributionStat, SamplesBuckets)
{
    StatGroup g("g");
    DistributionStat d(g, "d", "", 4);
    d.sample(0);
    d.sample(1, 3);
    d.sample(3);
    EXPECT_EQ(d.bucket(0), 1u);
    EXPECT_EQ(d.bucket(1), 3u);
    EXPECT_EQ(d.bucket(2), 0u);
    EXPECT_EQ(d.bucket(3), 1u);
    EXPECT_EQ(d.total(), 5u);
}

TEST(DistributionStat, Fractions)
{
    StatGroup g("g");
    DistributionStat d(g, "d", "", 2);
    EXPECT_DOUBLE_EQ(d.fraction(0), 0.0);  // empty distribution
    d.sample(0);
    d.sample(0);
    d.sample(1, 2);
    EXPECT_DOUBLE_EQ(d.fraction(0), 0.5);
    EXPECT_DOUBLE_EQ(d.fraction(1), 0.5);
}

TEST(DistributionStat, OutOfRangeDies)
{
    StatGroup g("g");
    DistributionStat d(g, "d", "", 2);
    EXPECT_DEATH(d.sample(2), "out of");
}

TEST(StatGroup, ResetAllZeroesEverything)
{
    StatGroup g("g");
    ScalarStat s(g, "s", "");
    DistributionStat d(g, "d", "", 3);
    s += 5;
    d.sample(1);
    g.resetAll();
    EXPECT_EQ(s.value(), 0u);
    EXPECT_EQ(d.total(), 0u);
}

TEST(StatGroup, DumpIsWellFormed)
{
    StatGroup g("unit");
    ScalarStat s(g, "counter", "a counter");
    s += 3;
    std::ostringstream out;
    g.dump(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("unit.counter"), std::string::npos);
    EXPECT_NE(text.find("3"), std::string::npos);
}

TEST(Ratio, HandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(ratio(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(5.0, 2.0), 2.5);
}

} // namespace
} // namespace fdp
