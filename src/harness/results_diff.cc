#include "harness/results_diff.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>

#include "harness/json_value.hh"
#include "sim/logging.hh"
#include "snap/snapshot_file.hh"

namespace fdp
{

namespace
{

/** Human rendering of a relative delta, sign included. */
std::string
fmtRelDelta(double rel)
{
    if (std::isinf(rel))
        return rel > 0 ? "+inf" : "-inf";
    std::ostringstream os;
    os << (rel >= 0 ? "+" : "") << std::fixed << std::setprecision(2)
       << rel * 100.0 << "%";
    return os.str();
}

} // namespace

const ResultsFile::Entry *
ResultsFile::find(const std::string &name) const
{
    for (const Entry &e : entries)
        if (e.name == name)
            return &e;
    return nullptr;
}

bool
loadResultsFile(const std::string &path, ResultsFile *out,
                std::string *error)
{
    std::string text;
    if (!readFileBytes(path, &text, error)) {
        *error = path + ": " + *error;
        return false;
    }

    JsonValue doc;
    if (!parseJson(text, &doc, error)) {
        *error = path + ": " + *error;
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    if (!schema || schema->asString() != "fdp-results-v1") {
        *error = path + ": schema is not fdp-results-v1";
        return false;
    }
    const JsonValue *entries = doc.find("entries");
    if (!entries || entries->kind != JsonValue::Kind::Array) {
        *error = path + ": missing entries array";
        return false;
    }

    out->path = path;
    out->source = doc.find("source") ? doc.find("source")->asString() : "";
    out->entries.clear();
    out->entries.reserve(entries->items.size());
    std::set<std::string> seen;
    for (const JsonValue &item : entries->items) {
        const JsonValue *name = item.find("name");
        const JsonValue *value = item.find("value");
        const JsonValue *better = item.find("better");
        if (!name || name->kind != JsonValue::Kind::String || !value ||
            value->kind != JsonValue::Kind::Number) {
            *error = path + ": entry without string name / numeric value";
            return false;
        }
        const std::string betterStr =
            better ? better->asString() : "higher";
        if (betterStr != "higher" && betterStr != "lower") {
            *error = path + ": entry " + name->asString() +
                     ": better must be higher|lower";
            return false;
        }
        if (!seen.insert(name->asString()).second) {
            *error = path + ": duplicate entry " + name->asString();
            return false;
        }
        out->entries.push_back(
            {name->asString(),
             item.find("unit") ? item.find("unit")->asString() : "",
             betterStr, value->number});
    }
    error->clear();
    return true;
}

const char *
diffStatusName(DiffStatus status)
{
    switch (status) {
      case DiffStatus::Ok:
        return "ok";
      case DiffStatus::Regressed:
        return "regressed";
      case DiffStatus::Missing:
        return "missing";
      case DiffStatus::Added:
        return "added";
    }
    return "?";
}

DiffReport
diffResults(const ResultsFile &base, const ResultsFile &fresh)
{
    DiffReport report;
    for (const ResultsFile::Entry &b : base.entries) {
        DiffEntry d;
        d.name = b.name;
        d.baseValue = b.value;
        const ResultsFile::Entry *f = fresh.find(b.name);
        if (!f) {
            d.status = DiffStatus::Missing;
            ++report.missing;
        } else if (f->value == b.value) {
            d.freshValue = f->value;
            ++report.ok;
        } else {
            // Direction is irrelevant: a simulated metric moving at
            // all is simulation-behavior drift.
            d.status = DiffStatus::Regressed;
            d.freshValue = f->value;
            if (b.value == 0.0)
                d.relDelta = f->value > 0
                                 ? std::numeric_limits<double>::infinity()
                                 : -std::numeric_limits<double>::infinity();
            else
                d.relDelta = (f->value - b.value) / std::fabs(b.value);
            ++report.regressed;
        }
        report.entries.push_back(std::move(d));
    }
    for (const ResultsFile::Entry &f : fresh.entries) {
        if (base.find(f.name))
            continue;
        DiffEntry d;
        d.name = f.name;
        d.status = DiffStatus::Added;
        d.freshValue = f.value;
        ++report.added;
        report.entries.push_back(std::move(d));
    }
    return report;
}

Table
buildDiffTable(const DiffReport &report, bool everything)
{
    Table table("results diff: " + std::to_string(report.regressed) +
                " regressed, " + std::to_string(report.missing) +
                " missing, " + std::to_string(report.added) + " added, " +
                std::to_string(report.ok) + " ok");
    table.setHeader({"metric", "status", "baseline", "fresh", "delta"});

    // Blocking rows first so a failing CI log leads with the cause.
    auto severity = [](DiffStatus s) {
        switch (s) {
          case DiffStatus::Regressed: return 0;
          case DiffStatus::Missing: return 1;
          case DiffStatus::Added: return 2;
          case DiffStatus::Ok: return 3;
        }
        return 4;
    };
    std::vector<const DiffEntry *> rows;
    for (const DiffEntry &d : report.entries)
        if (everything || d.status != DiffStatus::Ok)
            rows.push_back(&d);
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const DiffEntry *a, const DiffEntry *b) {
                         return severity(a->status) < severity(b->status);
                     });
    for (const DiffEntry *d : rows) {
        table.addRow({d->name, diffStatusName(d->status),
                      d->status == DiffStatus::Added
                          ? "-"
                          : jsonNumber(d->baseValue),
                      d->status == DiffStatus::Missing
                          ? "-"
                          : jsonNumber(d->freshValue),
                      d->status == DiffStatus::Added ||
                              d->status == DiffStatus::Missing
                          ? "-"
                          : fmtRelDelta(d->relDelta)});
    }
    return table;
}

void
writeVerdictFile(const std::string &path, const DiffReport &report,
                 const ResultsFile &base, const ResultsFile &fresh)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"fdp-diff-v1\",\n";
    os << "  \"base\": \"" << jsonEscape(base.path) << "\",\n";
    os << "  \"fresh\": \"" << jsonEscape(fresh.path) << "\",\n";
    os << "  \"verdict\": \"" << (report.blocking() ? "fail" : "pass")
       << "\",\n";
    os << "  \"counts\": {\"ok\": " << report.ok << ", \"regressed\": "
       << report.regressed << ", \"missing\": " << report.missing
       << ", \"added\": " << report.added << "},\n";
    os << "  \"entries\": [";
    bool first = true;
    for (const DiffEntry &d : report.entries) {
        if (d.status == DiffStatus::Ok)
            continue;
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"name\": \"" << jsonEscape(d.name)
           << "\", \"status\": \"" << diffStatusName(d.status) << "\"";
        if (d.status != DiffStatus::Added)
            os << ", \"base\": " << jsonNumber(d.baseValue);
        if (d.status != DiffStatus::Missing)
            os << ", \"fresh\": " << jsonNumber(d.freshValue);
        if (d.status != DiffStatus::Added &&
            d.status != DiffStatus::Missing && !std::isinf(d.relDelta))
            os << ", \"rel_delta\": " << jsonNumber(d.relDelta);
        os << "}";
    }
    os << "\n  ]\n}\n";

    std::string error;
    if (!writeFileAtomic(path, os.str(), &error))
        fatal("cannot open verdict file %s for writing: %s", path.c_str(),
              error.c_str());
}

} // namespace fdp
