/**
 * @file
 * Table-building helpers shared by the bench binaries: each paper
 * figure/table is "benchmarks down the side, configurations across the
 * top, one metric in the cells, a mean row at the bottom".
 */

#ifndef FDP_HARNESS_REPORTING_HH
#define FDP_HARNESS_REPORTING_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/table.hh"

namespace fdp
{

/** Pulls one metric out of a RunResult. */
using Metric = std::function<double(const RunResult &)>;

/** How the mean row at the bottom of a table is computed. */
enum class MeanKind
{
    Geometric,   ///< the paper's IPC means
    Arithmetic,  ///< the paper's BPKI means ("amean")
    None,
};

/**
 * Build a benchmarks x configurations table of one metric.
 *
 * @param results  results[c][b] is benchmark b under configuration c
 *                 (all inner vectors ordered like @p benchmarks).
 */
Table buildMetricTable(const std::string &title,
                       const std::vector<std::string> &benchmarks,
                       const std::vector<std::string> &configNames,
                       const std::vector<std::vector<RunResult>> &results,
                       const Metric &metric, int decimals, MeanKind mean);

/** Mean of @p metric over one configuration's results. */
double meanOf(const std::vector<RunResult> &results, const Metric &metric,
              MeanKind mean);

/** Convenience metrics. */
inline double metricIpc(const RunResult &r) { return r.ipc; }
inline double metricBpki(const RunResult &r) { return r.bpki; }
inline double metricAccuracy(const RunResult &r) { return r.accuracy; }
inline double metricLateness(const RunResult &r) { return r.lateness; }
inline double metricPollution(const RunResult &r) { return r.pollution; }

/**
 * Percentage change of @p metric's mean from @p base to @p test
 * (0.065 = +6.5%).
 */
double meanDelta(const std::vector<RunResult> &base,
                 const std::vector<RunResult> &test, const Metric &metric,
                 MeanKind mean);

/**
 * Builder for the "fdp-results-v1" JSON document shared by the sweep
 * binaries' --out files and golden_metrics, whose output is the CI
 * trajectory gate's BENCH_quick_baseline.json. One flat list of named
 * simulated metrics:
 *
 *   {"schema": "fdp-results-v1", "source": "...",
 *    "entries": [{"name": ..., "unit": ..., "better": ..., "value": ...}]}
 *
 * Values round-trip exactly (printed with max_digits10), so diffing two
 * files compares the actual doubles, not a formatting of them.
 */
class ResultsJson
{
  public:
    explicit ResultsJson(std::string source);

    /** @p better is "higher" or "lower" (which direction is good). */
    void add(const std::string &name, const std::string &unit, double value,
             const std::string &better);

    /** Append every headline metric of one run under name prefix @p prefix. */
    void addRunResult(const std::string &prefix, const RunResult &r);

    void write(std::ostream &os) const;

    /** Write to @p path (writeFileAtomic); fatal on I/O failure (a
     *  sweep's results are too expensive to lose silently). */
    void writeFile(const std::string &path) const;

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::string name;
        std::string unit;
        std::string better;
        double value;
    };

    std::string source_;
    std::vector<Entry> entries_;
};

/**
 * Persist one sweep (the same results[c][b] matrix buildMetricTable
 * consumes) to @p path as fdp-results-v1, one entry per
 * (benchmark, config, metric). No-op when @p path is empty, so callers
 * can pass an unset --out straight through.
 */
void writeSweepResults(const std::string &path, const std::string &source,
                       const std::vector<std::string> &benchmarks,
                       const std::vector<std::string> &configNames,
                       const std::vector<std::vector<RunResult>> &results);

} // namespace fdp

#endif // FDP_HARNESS_REPORTING_HH
