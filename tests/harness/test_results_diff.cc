/**
 * @file
 * Tests for the cross-run regression differ: every entry compared
 * exactly, blocking semantics, the verdict file, the loader's error
 * paths, and the underlying JSON parser's defensiveness.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/json_value.hh"
#include "harness/results_diff.hh"

namespace fdp
{
namespace
{

ResultsFile
file(std::vector<ResultsFile::Entry> entries)
{
    ResultsFile f;
    f.path = "test.json";
    f.source = "test";
    f.entries = std::move(entries);
    return f;
}

std::string
writeTemp(const std::string &name, const std::string &content)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream os(path, std::ios::trunc);
    os << content;
    return path;
}

const DiffEntry *
entryNamed(const DiffReport &report, const std::string &name)
{
    for (const DiffEntry &d : report.entries)
        if (d.name == name)
            return &d;
    return nullptr;
}

std::string
render(const Table &table)
{
    char buf[16384] = {};
    std::FILE *f = fmemopen(buf, sizeof buf, "w");
    table.print(f);
    std::fclose(f);
    return buf;
}

/** Write @p report's verdict file and parse it back. */
JsonValue
verdictOf(const DiffReport &report, const ResultsFile &base,
          const ResultsFile &fresh, const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    writeVerdictFile(path, report, base, fresh);
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    JsonValue parsed;
    std::string error;
    EXPECT_TRUE(parseJson(ss.str(), &parsed, &error)) << error;
    return parsed;
}

/** A baseline and a fresh run with one entry of every status. */
ResultsFile
mixedBase()
{
    return file({{"sim/a/ipc", "insts/cycle", "higher", 1.0},
                 {"sim/b/l2_misses", "count", "lower", 2.0},
                 {"sim/c/bpki", "count/kinst", "lower", 4.0}});
}

ResultsFile
mixedFresh()
{
    return file({{"sim/d/ipc", "insts/cycle", "higher", 0.5},
                 {"sim/b/l2_misses", "count", "lower", 3.0},
                 {"sim/a/ipc", "insts/cycle", "higher", 1.0}});
}

TEST(DiffResults, IdenticalFilesAllOk)
{
    const ResultsFile base = file({{"sim/a/ipc", "insts/cycle", "higher",
                                    1.5},
                                   {"t/ns", "ns/op", "lower", 100.0}});
    const DiffReport r = diffResults(base, base);
    EXPECT_EQ(r.ok, 2u);
    EXPECT_FALSE(r.blocking());
}

TEST(DiffResults, DeterministicDriftBlocksInEitherDirection)
{
    const ResultsFile base =
        file({{"sim/a/bus_accesses", "count", "lower", 2814.0}});
    // "Improvement" in a deterministic counter is still drift.
    const ResultsFile fresh =
        file({{"sim/a/bus_accesses", "count", "lower", 2813.0}});
    const DiffReport r = diffResults(base, fresh);
    ASSERT_EQ(r.regressed, 1u);
    EXPECT_TRUE(r.blocking());
    EXPECT_EQ(entryNamed(r, "sim/a/bus_accesses")->status,
              DiffStatus::Regressed);
}

TEST(DiffResults, EveryEntryIsExactWhateverItsUnit)
{
    // A results file holds only simulated metrics, so no unit earns a
    // tolerance: an ns/op entry that moves blocks like a counter.
    const ResultsFile base = file({{"t/ns", "ns/op", "lower", 100.0}});
    const ResultsFile fresh = file({{"t/ns", "ns/op", "lower", 150.0}});
    const DiffReport r = diffResults(base, fresh);
    EXPECT_EQ(r.regressed, 1u);
    EXPECT_TRUE(r.blocking());
    EXPECT_EQ(entryNamed(r, "t/ns")->status, DiffStatus::Regressed);
}

TEST(DiffResults, InjectedCounterRegressionProducesFailingVerdict)
{
    // The acceptance scenario for the CI trajectory gate: a fresh run
    // whose deterministic counter moved must produce a blocking report
    // and a "fail" verdict file.
    const ResultsFile base =
        file({{"sim/swim/l2_misses", "count", "lower", 42.0},
              {"sim/swim/ipc", "insts/cycle", "higher", 0.75}});
    const ResultsFile fresh =
        file({{"sim/swim/l2_misses", "count", "lower", 49.0},
              {"sim/swim/ipc", "insts/cycle", "higher", 0.75}});
    const DiffReport r = diffResults(base, fresh);
    EXPECT_TRUE(r.blocking());
    EXPECT_EQ(r.regressed, 1u);

    const std::string path = testing::TempDir() + "verdict_inj.json";
    writeVerdictFile(path, r, base, fresh);
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"verdict\": \"fail\""), std::string::npos);
    EXPECT_NE(doc.find("sim/swim/l2_misses"), std::string::npos);

    // The verdict file is valid JSON with the advertised schema.
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(parseJson(doc, &parsed, &error)) << error;
    EXPECT_EQ(parsed.find("schema")->asString(), "fdp-diff-v1");
}

TEST(DiffResults, MissingEntryBlocksAddedDoesNot)
{
    const ResultsFile base =
        file({{"sim/a/ipc", "insts/cycle", "higher", 1.0}});
    const ResultsFile fresh =
        file({{"sim/b/ipc", "insts/cycle", "higher", 1.0}});
    const DiffReport r = diffResults(base, fresh);
    EXPECT_EQ(r.missing, 1u);
    EXPECT_EQ(r.added, 1u);
    EXPECT_TRUE(r.blocking());
    EXPECT_EQ(entryNamed(r, "sim/a/ipc")->status, DiffStatus::Missing);
    EXPECT_EQ(entryNamed(r, "sim/b/ipc")->status, DiffStatus::Added);

    const ResultsFile both = file({{"sim/a/ipc", "insts/cycle", "higher",
                                    1.0},
                                   {"sim/b/ipc", "insts/cycle", "higher",
                                    1.0}});
    EXPECT_FALSE(diffResults(base, both).blocking());
}

TEST(DiffResults, ZeroBaselineDriftIsStillCaught)
{
    const ResultsFile base =
        file({{"sim/a/pollution", "ratio", "lower", 0.0}});
    const ResultsFile fresh =
        file({{"sim/a/pollution", "ratio", "lower", 0.25}});
    const DiffReport r = diffResults(base, fresh);
    EXPECT_TRUE(r.blocking());
}

TEST(DiffResults, RelDeltaIsRelativeToTheBaselineMagnitude)
{
    const ResultsFile base = file({{"a", "ratio", "higher", -2.0},
                                   {"b", "ratio", "higher", 4.0},
                                   {"z", "ratio", "lower", 0.0},
                                   {"y", "ratio", "lower", 0.0}});
    const ResultsFile fresh = file({{"a", "ratio", "higher", -1.0},
                                    {"b", "ratio", "higher", 3.0},
                                    {"z", "ratio", "lower", 0.25},
                                    {"y", "ratio", "lower", -0.25}});
    const DiffReport r = diffResults(base, fresh);
    EXPECT_EQ(entryNamed(r, "a")->relDelta, 0.5);
    EXPECT_EQ(entryNamed(r, "b")->relDelta, -0.25);
    EXPECT_EQ(entryNamed(r, "z")->relDelta,
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(entryNamed(r, "y")->relDelta,
              -std::numeric_limits<double>::infinity());
}

TEST(DiffResults, StatusNamesAreTheVerdictVocabulary)
{
    EXPECT_STREQ(diffStatusName(DiffStatus::Ok), "ok");
    EXPECT_STREQ(diffStatusName(DiffStatus::Regressed), "regressed");
    EXPECT_STREQ(diffStatusName(DiffStatus::Missing), "missing");
    EXPECT_STREQ(diffStatusName(DiffStatus::Added), "added");
}

TEST(DiffResults, TableLeadsWithBlockingRowsAndHasNoClassColumn)
{
    const DiffReport r = diffResults(mixedBase(), mixedFresh());
    ASSERT_EQ(r.entries.size(), 4u);

    const Table changed = buildDiffTable(r);
    EXPECT_EQ(changed.numRows(), 3u);
    EXPECT_EQ(buildDiffTable(r, true).numRows(), 4u);

    const std::string out = render(changed);
    EXPECT_NE(out.find("results diff: 1 regressed, 1 missing, 1 added, "
                       "1 ok"),
              std::string::npos);
    EXPECT_NE(out.find("baseline"), std::string::npos) << out;
    EXPECT_NE(out.find("delta"), std::string::npos) << out;
    EXPECT_EQ(out.find("class"), std::string::npos) << out;
    EXPECT_EQ(out.find("sim/a/ipc"), std::string::npos) << out;
    // Regressed, then missing, then added, whatever the file order.
    const std::size_t regressed = out.find("sim/b/l2_misses");
    const std::size_t missing = out.find("sim/c/bpki");
    const std::size_t added = out.find("sim/d/ipc");
    ASSERT_NE(added, std::string::npos);
    EXPECT_LT(regressed, missing);
    EXPECT_LT(missing, added);
    EXPECT_NE(out.find("+50.00%"), std::string::npos) << out;
}

TEST(DiffResults, VerdictListsEveryChangedEntryAndNoTolerances)
{
    const ResultsFile base = mixedBase();
    const ResultsFile fresh = mixedFresh();
    const JsonValue v = verdictOf(diffResults(base, fresh), base, fresh,
                                  "verdict_mixed.json");
    EXPECT_EQ(v.find("verdict")->asString(), "fail");
    EXPECT_EQ(v.find("options"), nullptr);
    const JsonValue *counts = v.find("counts");
    ASSERT_NE(counts, nullptr);
    EXPECT_EQ(counts->find("ok")->asNumber(-1), 1.0);
    EXPECT_EQ(counts->find("regressed")->asNumber(-1), 1.0);
    EXPECT_EQ(counts->find("missing")->asNumber(-1), 1.0);
    EXPECT_EQ(counts->find("added")->asNumber(-1), 1.0);

    const JsonValue *entries = v.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->items.size(), 3u);
    for (const JsonValue &e : entries->items)
        EXPECT_EQ(e.find("class"), nullptr) << e.find("name")->asString();

    const JsonValue &regressed = entries->items[0];
    EXPECT_EQ(regressed.find("name")->asString(), "sim/b/l2_misses");
    EXPECT_EQ(regressed.find("status")->asString(), "regressed");
    EXPECT_EQ(regressed.find("base")->asNumber(), 2.0);
    EXPECT_EQ(regressed.find("fresh")->asNumber(), 3.0);
    EXPECT_EQ(regressed.find("rel_delta")->asNumber(), 0.5);

    const JsonValue &missing = entries->items[1];
    EXPECT_EQ(missing.find("status")->asString(), "missing");
    EXPECT_EQ(missing.find("fresh"), nullptr);
    EXPECT_EQ(missing.find("rel_delta"), nullptr);

    const JsonValue &added = entries->items[2];
    EXPECT_EQ(added.find("status")->asString(), "added");
    EXPECT_EQ(added.find("base"), nullptr);
    EXPECT_EQ(added.find("fresh")->asNumber(), 0.5);
}

TEST(DiffResults, AdditionsAloneGiveAPassingVerdict)
{
    const ResultsFile base =
        file({{"sim/a/ipc", "insts/cycle", "higher", 1.0}});
    const ResultsFile fresh =
        file({{"sim/a/ipc", "insts/cycle", "higher", 1.0},
              {"sim/a/bpki", "count/kinst", "lower", 7.0}});
    const JsonValue v = verdictOf(diffResults(base, fresh), base, fresh,
                                  "verdict_added.json");
    EXPECT_EQ(v.find("verdict")->asString(), "pass");
    const JsonValue *entries = v.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->items.size(), 1u);
    EXPECT_EQ(entries->items[0].find("name")->asString(), "sim/a/bpki");
}

TEST(DiffResults, InfiniteDeltaStaysOutOfTheVerdictJson)
{
    // A zero baseline that moves has an infinite relative delta, which
    // JSON cannot hold: the verdict omits it, the table spells it out.
    const ResultsFile base =
        file({{"sim/a/pollution", "ratio", "lower", 0.0}});
    const ResultsFile fresh =
        file({{"sim/a/pollution", "ratio", "lower", 0.25}});
    const DiffReport r = diffResults(base, fresh);
    const JsonValue v = verdictOf(r, base, fresh, "verdict_inf.json");
    const JsonValue *entries = v.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->items.size(), 1u);
    EXPECT_EQ(entries->items[0].find("fresh")->asNumber(), 0.25);
    EXPECT_EQ(entries->items[0].find("rel_delta"), nullptr);
    EXPECT_NE(render(buildDiffTable(r)).find("+inf"), std::string::npos);
}

TEST(LoadResultsFile, RoundTripsAWellFormedDocument)
{
    const std::string path = writeTemp("diff_ok.json", R"({
      "schema": "fdp-results-v1",
      "source": "unit",
      "entries": [
        {"name": "a", "unit": "count", "better": "lower", "value": 3},
        {"name": "b", "unit": "ns/op", "better": "lower", "value": 1.5}
      ]
    })");
    ResultsFile f;
    std::string error;
    ASSERT_TRUE(loadResultsFile(path, &f, &error)) << error;
    EXPECT_EQ(f.source, "unit");
    ASSERT_EQ(f.entries.size(), 2u);
    EXPECT_EQ(f.entries[0].name, "a");
    EXPECT_EQ(f.entries[1].value, 1.5);
    ASSERT_NE(f.find("b"), nullptr);
    EXPECT_EQ(f.find("zzz"), nullptr);
}

TEST(LoadResultsFile, RejectsBadInputsWithDiagnostics)
{
    ResultsFile f;
    std::string error;
    EXPECT_FALSE(loadResultsFile(testing::TempDir() + "absent.json", &f,
                                 &error));
    EXPECT_NE(error.find("absent.json"), std::string::npos);

    EXPECT_FALSE(loadResultsFile(
        writeTemp("diff_syntax.json", "{\"schema\": "), &f, &error));
    EXPECT_NE(error.find("line"), std::string::npos);

    EXPECT_FALSE(loadResultsFile(
        writeTemp("diff_schema.json", R"({"schema": "other-v9",
                  "entries": []})"),
        &f, &error));
    EXPECT_NE(error.find("fdp-results-v1"), std::string::npos);

    EXPECT_FALSE(loadResultsFile(
        writeTemp("diff_noentry.json", R"({"schema": "fdp-results-v1"})"),
        &f, &error));
    EXPECT_NE(error.find("entries"), std::string::npos);

    EXPECT_FALSE(loadResultsFile(
        writeTemp("diff_dup.json", R"({"schema": "fdp-results-v1",
          "entries": [
            {"name": "a", "better": "lower", "value": 1},
            {"name": "a", "better": "lower", "value": 2}
          ]})"),
        &f, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);

    EXPECT_FALSE(loadResultsFile(
        writeTemp("diff_badbetter.json", R"({"schema": "fdp-results-v1",
          "entries": [
            {"name": "a", "better": "sideways", "value": 1}
          ]})"),
        &f, &error));
    EXPECT_NE(error.find("higher|lower"), std::string::npos);
}

} // namespace
} // namespace fdp
