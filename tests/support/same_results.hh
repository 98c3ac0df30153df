/**
 * @file
 * Whole-result equality for the equivalence tests: every RunResult
 * field, bit for bit, through the one field list in
 * harness/experiment.hh, every McRunResult field, per core too,
 * through the lists in mc/mc_machine.hh, and every field a co-run's
 * core shares with a single-core run, so no test compares a
 * hand-picked subset.
 */

#ifndef FDP_TESTS_SUPPORT_SAME_RESULTS_HH
#define FDP_TESTS_SUPPORT_SAME_RESULTS_HH

#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "mc/mc_machine.hh"

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

/** The same for two co-runs; a failure names the first field that
 *  differs, per-core ones as "cores[i].<field>". */
inline void
expectBitIdentical(const McRunResult &a, const McRunResult &b,
                   std::string_view skip = {})
{
    EXPECT_EQ(firstDifferingField(a, b, skip), "")
        << a.mix << " / " << a.config;
}

/** The same, element by element: a suite, a sweep's config-major grid
 *  of them, or a mix sweep's co-runs. */
template <class T>
void
expectBitIdentical(const std::vector<T> &a, const std::vector<T> &b,
                   std::string_view skip = {})
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectBitIdentical(a[i], b[i], skip);
}

/**
 * Calls @p visit(name, runMember, coreMember) for every field that
 * forEachRunResultField and forEachMcCoreResultField both name, with
 * the same type, in the core list's order: what a 1-core co-run's core
 * shares with the single-core run.
 */
template <class Visit>
void
forEachSharedCoreField(Visit &&visit)
{
    forEachMcCoreResultField([&](const char *name, auto core) {
        forEachRunResultField([&](const char *runName, auto run) {
            using Core = std::remove_cvref_t<
                decltype(std::declval<McCoreResult>().*core)>;
            using Run =
                std::remove_cvref_t<decltype(std::declval<RunResult>().*run)>;
            if constexpr (std::is_same_v<Core, Run>)
                if (std::string_view(name) == runName)
                    visit(name, run, core);
        });
    });
}

/** Expect core @p c of a 1-core co-run to match the single-core run
 *  @p s bit for bit on every shared field, and to run s's benchmark. */
inline void
expectSameSharedFields(const RunResult &s, const McCoreResult &c)
{
    EXPECT_EQ(c.program, s.benchmark);
    forEachSharedCoreField([&](const char *name, auto run, auto core) {
        EXPECT_TRUE(sameBits(s.*run, c.*core))
            << name << ": " << s.*run << " vs " << c.*core;
    });
}

/// @name nudge(v): change @p v to the nearest value that differs from
/// it, so a test can check that a comparator notices every field.
/// @{
inline void
nudge(std::string &v)
{
    v += "'";
}

template <class T>
    requires std::is_integral_v<T>
void
nudge(T &v)
{
    ++v;
}

inline void
nudge(double &v)
{
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
}

template <std::size_t N>
void
nudge(std::array<double, N> &v)
{
    nudge(v.back());
}
/// @}

} // namespace fdp

#endif // FDP_TESTS_SUPPORT_SAME_RESULTS_HH
