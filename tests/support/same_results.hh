/**
 * @file
 * Whole-result equality for the equivalence tests: every RunResult
 * field, bit for bit, through the one field list in
 * harness/experiment.hh, so no test compares a hand-picked subset.
 */

#ifndef FDP_TESTS_SUPPORT_SAME_RESULTS_HH
#define FDP_TESTS_SUPPORT_SAME_RESULTS_HH

#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace fdp
{

/** Expect @p a and @p b to match on every field but @p skip; a failure
 *  names the first field that differs. */
inline void
expectBitIdentical(const RunResult &a, const RunResult &b,
                   std::string_view skip = {})
{
    EXPECT_EQ(firstDifferingField(a, b, skip), "")
        << a.benchmark << " / " << a.config;
}

/** The same, element by element: a suite, or a sweep's config-major
 *  grid of them. */
template <class T>
void
expectBitIdentical(const std::vector<T> &a, const std::vector<T> &b,
                   std::string_view skip = {})
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectBitIdentical(a[i], b[i], skip);
}

} // namespace fdp

#endif // FDP_TESTS_SUPPORT_SAME_RESULTS_HH
