/**
 * @file
 * The fdp_analyze check registry.
 *
 * Rule catalog (ids are stable; every finding carries one):
 *
 *   unordered-iter       iteration over std::unordered_* containers
 *                        (order is unspecified => nondeterministic runs)
 *   pointer-order        pointer values used as an ordering: pointer-keyed
 *                        std::map/std::set, std::less<T*>,
 *                        reinterpret_cast to (u)intptr_t
 *   rng-only             randomness sources outside fdp::Rng
 *   wall-clock           wall-clock time sources (std::chrono clocks,
 *                        time()/clock()/gettimeofday/clock_gettime)
 *   audit-coverage       class in src/{mem,sim,core,mc,prefetch} with
 *                        mutable container/counter state that neither
 *                        derives fdp::Auditable nor carries a suppression
 *   typed-core-id        raw-integer core ids / CoreId::index() arithmetic
 *                        outside src/mc/
 *   unit-mixing          additive arithmetic mixing cycle/inst/byte
 *                        unit-suffixed identifiers
 *   no-raw-new           raw new/delete (own state via containers and
 *                        std::unique_ptr)
 *   pool-only-threading  raw threading primitives outside the sweep pool
 *   file-io              raw file I/O outside src/trace/,
 *                        harness/reporting, and the analyzer itself
 *   include-guard        missing or misnamed FDP_<DIR>_<STEM>_HH guards
 *   include-cycle        cyclic quoted includes
 *   layering             subsystem layering violations (include_graph.hh)
 *   suppression          malformed fdp-analyze suppression annotations
 *   logging-only         printf-family calls in src/ outside
 *                        sim/logging.{hh,cc} and sim/table.cc
 *   test-pairing         src/<dir>/<f>.cc without a
 *                        tests/<dir>/test_<f>.cc
 *
 * All checks run over the lexer's token stream, so comments, string
 * literals, line breaks, and macro bodies cannot hide a violation.
 */

#ifndef FDP_ANALYZE_CHECKS_HH
#define FDP_ANALYZE_CHECKS_HH

#include <string>
#include <vector>

#include "analyze/findings.hh"
#include "analyze/source.hh"

namespace fdp::analyze
{

/** One catalog entry for --list-checks and the self-test. */
struct CheckInfo
{
    const char *rule;
    const char *summary;
};

/** Every registered rule, in catalog order. */
const std::vector<CheckInfo> &checkCatalog();

/**
 * Run every check over the tree and return suppression-filtered,
 * sorted findings.
 */
std::vector<Finding> runChecks(const SourceTree &tree);

} // namespace fdp::analyze

#endif // FDP_ANALYZE_CHECKS_HH
