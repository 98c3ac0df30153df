#include "harness/reporting.hh"

#include <sstream>

#include "harness/json_value.hh"
#include "sim/logging.hh"
#include "snap/snapshot_file.hh"

namespace fdp
{

double
meanOf(const std::vector<RunResult> &results, const Metric &metric,
       MeanKind mean)
{
    std::vector<double> values;
    values.reserve(results.size());
    for (const auto &r : results)
        values.push_back(metric(r));
    switch (mean) {
      case MeanKind::Geometric:
        return gmean(values);
      case MeanKind::Arithmetic:
        return amean(values);
      case MeanKind::None:
        return 0.0;
    }
    return 0.0;
}

Table
buildMetricTable(const std::string &title,
                 const std::vector<std::string> &benchmarks,
                 const std::vector<std::string> &configNames,
                 const std::vector<std::vector<RunResult>> &results,
                 const Metric &metric, int decimals, MeanKind mean)
{
    if (results.size() != configNames.size())
        panic("table %s: %zu result sets but %zu config names",
              title.c_str(), results.size(), configNames.size());
    for (const auto &per_config : results)
        if (per_config.size() != benchmarks.size())
            panic("table %s: config has %zu results for %zu benchmarks",
                  title.c_str(), per_config.size(), benchmarks.size());

    Table table(title);
    std::vector<std::string> header = {"benchmark"};
    header.insert(header.end(), configNames.begin(), configNames.end());
    table.setHeader(std::move(header));

    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        std::vector<std::string> row = {benchmarks[b]};
        for (std::size_t c = 0; c < results.size(); ++c)
            row.push_back(fmtDouble(metric(results[c][b]), decimals));
        table.addRow(std::move(row));
    }

    if (mean != MeanKind::None) {
        table.addRule();
        std::vector<std::string> row = {
            mean == MeanKind::Geometric ? "gmean" : "amean"};
        for (std::size_t c = 0; c < results.size(); ++c)
            row.push_back(fmtDouble(meanOf(results[c], metric, mean),
                                    decimals));
        table.addRow(std::move(row));
    }
    return table;
}

ResultsJson::ResultsJson(std::string source) : source_(std::move(source)) {}

void
ResultsJson::add(const std::string &name, const std::string &unit,
                 double value, const std::string &better)
{
    if (better != "higher" && better != "lower")
        panic("results entry %s: better must be higher|lower, got %s",
              name.c_str(), better.c_str());
    entries_.push_back(Entry{name, unit, better, value});
}

void
ResultsJson::addRunResult(const std::string &prefix, const RunResult &r)
{
    add(prefix + "/ipc", "insts/cycle", r.ipc, "higher");
    add(prefix + "/bpki", "bus-accesses/kilo-inst", r.bpki, "lower");
    add(prefix + "/accuracy", "ratio", r.accuracy, "higher");
    add(prefix + "/lateness", "ratio", r.lateness, "lower");
    add(prefix + "/pollution", "ratio", r.pollution, "lower");
    add(prefix + "/avg_miss_latency", "cycles", r.avgMissLatency, "lower");
    add(prefix + "/bus_accesses", "count",
        static_cast<double>(r.busAccesses), "lower");
}

void
ResultsJson::write(std::ostream &os) const
{
    os << "{\n";
    os << "  \"schema\": \"fdp-results-v1\",\n";
    os << "  \"source\": \"" << jsonEscape(source_) << "\",\n";
    os << "  \"entries\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"name\": \"" << jsonEscape(e.name)
           << "\", \"unit\": \"" << jsonEscape(e.unit)
           << "\", \"better\": \"" << e.better
           << "\", \"value\": " << jsonNumber(e.value) << "}";
    }
    os << "\n  ]\n}\n";
}

void
ResultsJson::writeFile(const std::string &path) const
{
    // An unwritable results path is a user/environment error (typo'd
    // directory, full disk), not a harness bug: report which path and
    // why, and exit instead of aborting.
    std::ostringstream os;
    write(os);
    std::string error;
    if (!writeFileAtomic(path, os.str(), &error))
        fatal("cannot open results file %s for writing: %s", path.c_str(),
              error.c_str());
}

void
writeSweepResults(const std::string &path, const std::string &source,
                  const std::vector<std::string> &benchmarks,
                  const std::vector<std::string> &configNames,
                  const std::vector<std::vector<RunResult>> &results)
{
    if (path.empty())
        return;
    if (results.size() != configNames.size())
        panic("sweep results %s: %zu result sets but %zu config names",
              source.c_str(), results.size(), configNames.size());

    ResultsJson json(source);
    for (std::size_t c = 0; c < results.size(); ++c) {
        if (results[c].size() != benchmarks.size())
            panic("sweep results %s: config %s has %zu results for %zu "
                  "benchmarks", source.c_str(), configNames[c].c_str(),
                  results[c].size(), benchmarks.size());
        for (std::size_t b = 0; b < benchmarks.size(); ++b)
            json.addRunResult(benchmarks[b] + "/" + configNames[c],
                              results[c][b]);
    }
    json.writeFile(path);
}

double
meanDelta(const std::vector<RunResult> &base,
          const std::vector<RunResult> &test, const Metric &metric,
          MeanKind mean)
{
    const double b = meanOf(base, metric, mean);
    const double t = meanOf(test, metric, mean);
    return b == 0.0 ? 0.0 : (t - b) / b;
}

} // namespace fdp
