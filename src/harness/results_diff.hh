/**
 * @file
 * Cross-run regression differ over fdp-results-v1 files.
 *
 * Every entry is a simulated metric (counters, IPC, BPKI,
 * accuracy/lateness/pollution, bus accesses, speedups), bit-identical
 * across machines, --jobs and completion order by the determinism
 * contract (DESIGN.md Section 15). So the diff is exact: ANY difference
 * — in either direction — is simulation-behavior drift and blocks.
 *
 * An entry present in the baseline but absent from the fresh run
 * blocks too (a silently vanished metric is drift in the harness);
 * new entries are informational.
 */

#ifndef FDP_HARNESS_RESULTS_DIFF_HH
#define FDP_HARNESS_RESULTS_DIFF_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/table.hh"

namespace fdp
{

/** One loaded fdp-results-v1 document. */
struct ResultsFile
{
    struct Entry
    {
        std::string name;
        std::string unit;
        std::string better;  ///< "higher" or "lower"
        double value = 0.0;
    };

    std::string path;
    std::string source;
    std::vector<Entry> entries;  ///< file order preserved

    const Entry *find(const std::string &name) const;
};

/**
 * Load and validate @p path as fdp-results-v1. Returns false with a
 * diagnostic on I/O failure, JSON syntax errors, a wrong schema, or
 * structurally bad entries (missing name/value, bad better).
 */
bool loadResultsFile(const std::string &path, ResultsFile *out,
                     std::string *error);

/** Per-entry verdict. */
enum class DiffStatus
{
    Ok,         ///< unchanged
    Regressed,  ///< blocking: the value moved
    Missing,    ///< blocking: in baseline, absent from fresh run
    Added,      ///< informational: new in fresh run
};

const char *diffStatusName(DiffStatus status);

struct DiffEntry
{
    std::string name;
    DiffStatus status = DiffStatus::Ok;
    double baseValue = 0.0;
    double freshValue = 0.0;
    /** (fresh - base) / |base|; +/-inf when base == 0 != fresh. */
    double relDelta = 0.0;
};

struct DiffReport
{
    std::vector<DiffEntry> entries;  ///< baseline order, then additions
    std::size_t ok = 0;
    std::size_t regressed = 0;
    std::size_t missing = 0;
    std::size_t added = 0;

    /** True when the diff must fail its caller (CI gate semantics). */
    bool blocking() const { return regressed > 0 || missing > 0; }
};

/** Compare @p fresh against @p base, entry by entry, exactly. */
DiffReport diffResults(const ResultsFile &base, const ResultsFile &fresh);

/**
 * Human-readable table of every non-Ok entry (all entries when
 * @p everything), regressions first.
 */
Table buildDiffTable(const DiffReport &report, bool everything = false);

/**
 * Write the machine-readable verdict ("fdp-diff-v1": counts, overall
 * pass/fail, and every non-Ok entry) to @p path. Fatal on I/O failure.
 */
void writeVerdictFile(const std::string &path, const DiffReport &report,
                      const ResultsFile &base, const ResultsFile &fresh);

} // namespace fdp

#endif // FDP_HARNESS_RESULTS_DIFF_HH
