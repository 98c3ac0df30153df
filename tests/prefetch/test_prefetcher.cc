/**
 * @file
 * Tests for the Prefetcher base over every kind the harness builds:
 * the base owns the aggressiveness level, so each selection starts at
 * its initial level, follows the setter, panics on a level outside
 * [1, 5] at construction and in the setter, and fails its audit when
 * the level is corrupted.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "support/corrupt.hh"

namespace fdp
{
namespace
{

/** Every knownPrefetcherNames() selection but `none'. */
std::vector<std::string>
builtSelections()
{
    std::vector<std::string> names;
    for (const std::string &name : knownPrefetcherNames())
        if (name != "none")
            names.push_back(name);
    return names;
}

/** @p name's prefetcher, built as a static run at @p level builds it. */
std::unique_ptr<Prefetcher>
build(const std::string &name, unsigned level)
{
    return makeRunPrefetcher(applyPrefetcherSelection(
        RunConfig::staticLevelConfig(level), name));
}

class PrefetcherLevel : public testing::TestWithParam<std::string>
{
};

class PrefetcherLevelDeathTest : public testing::TestWithParam<std::string>
{
};

TEST_P(PrefetcherLevel, StartsAtTheInitialLevelAndFollowsTheSetter)
{
    const std::unique_ptr<Prefetcher> pf = build(GetParam(), 2);
    ASSERT_NE(pf, nullptr);
    EXPECT_EQ(pf->aggressiveness(), 2u);
    pf->setAggressiveness(kMaxAggrLevel);
    EXPECT_EQ(pf->aggressiveness(), kMaxAggrLevel);
    pf->audit();
}

TEST_P(PrefetcherLevelDeathTest, OutOfRangeLevelsPanic)
{
    const std::unique_ptr<Prefetcher> pf =
        build(GetParam(), kInitialAggrLevel);
    EXPECT_DEATH(pf->setAggressiveness(0), "bad aggressiveness");
    EXPECT_DEATH(pf->setAggressiveness(kMaxAggrLevel + 1),
                 "bad aggressiveness");
    EXPECT_DEATH(build(GetParam(), 0), "bad aggressiveness level");
    EXPECT_DEATH(build(GetParam(), kMaxAggrLevel + 1),
                 "bad aggressiveness level");
}

TEST_P(PrefetcherLevelDeathTest, CorruptedLevelFailsTheAudit)
{
    const std::unique_ptr<Prefetcher> pf =
        build(GetParam(), kInitialAggrLevel);
    AuditCorrupter::prefetcherBadLevel(*pf);
    EXPECT_DEATH(pf->audit(), "outside");
}

std::string
selectionName(const testing::TestParamInfo<std::string> &info)
{
    return info.param;
}

INSTANTIATE_TEST_SUITE_P(EverySelection, PrefetcherLevel,
                         testing::ValuesIn(builtSelections()),
                         selectionName);
INSTANTIATE_TEST_SUITE_P(EverySelection, PrefetcherLevelDeathTest,
                         testing::ValuesIn(builtSelections()),
                         selectionName);

} // namespace
} // namespace fdp
