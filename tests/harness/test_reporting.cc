/**
 * @file
 * Tests for the reporting helpers (means, deltas, table assembly).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "harness/reporting.hh"
#include "harness/sweep_pool.hh"

namespace fdp
{
namespace
{

RunResult
res(const std::string &bench, double ipc, double bpki)
{
    RunResult r;
    r.benchmark = bench;
    r.ipc = ipc;
    r.bpki = bpki;
    return r;
}

TEST(Reporting, MeanOfGeometric)
{
    const std::vector<RunResult> v = {res("a", 2.0, 0), res("b", 8.0, 0)};
    EXPECT_NEAR(meanOf(v, metricIpc, MeanKind::Geometric), 4.0, 1e-12);
}

TEST(Reporting, MeanOfArithmetic)
{
    const std::vector<RunResult> v = {res("a", 0, 10.0),
                                      res("b", 0, 30.0)};
    EXPECT_DOUBLE_EQ(meanOf(v, metricBpki, MeanKind::Arithmetic), 20.0);
}

TEST(Reporting, MeanOfNoneIsZero)
{
    const std::vector<RunResult> v = {res("a", 1.0, 1.0)};
    EXPECT_DOUBLE_EQ(meanOf(v, metricIpc, MeanKind::None), 0.0);
}

TEST(Reporting, MeanDeltaSignsAndMagnitude)
{
    const std::vector<RunResult> base = {res("a", 1.0, 10.0)};
    const std::vector<RunResult> faster = {res("a", 1.1, 8.0)};
    EXPECT_NEAR(meanDelta(base, faster, metricIpc, MeanKind::Geometric),
                0.10, 1e-12);
    EXPECT_NEAR(meanDelta(base, faster, metricBpki, MeanKind::Arithmetic),
                -0.20, 1e-12);
}

TEST(Reporting, BuildMetricTableShape)
{
    const std::vector<std::string> benches = {"a", "b"};
    std::vector<std::vector<RunResult>> results = {
        {res("a", 1.0, 0), res("b", 2.0, 0)},
        {res("a", 1.5, 0), res("b", 2.5, 0)},
    };
    Table t = buildMetricTable("x", benches, {"c1", "c2"}, results,
                               metricIpc, 2, MeanKind::Geometric);
    EXPECT_EQ(t.numRows(), 3u);  // 2 benchmarks + gmean
}

TEST(Reporting, BuildMetricTableWithoutMean)
{
    const std::vector<std::string> benches = {"a"};
    std::vector<std::vector<RunResult>> results = {{res("a", 1.0, 0)}};
    Table t = buildMetricTable("x", benches, {"c1"}, results, metricIpc,
                               2, MeanKind::None);
    EXPECT_EQ(t.numRows(), 1u);
}

TEST(ReportingDeath, MismatchedConfigCountDies)
{
    const std::vector<std::string> benches = {"a"};
    std::vector<std::vector<RunResult>> results = {{res("a", 1.0, 0)}};
    EXPECT_DEATH(buildMetricTable("x", benches, {"c1", "c2"}, results,
                                  metricIpc, 2, MeanKind::None),
                 "config names");
}

TEST(ReportingDeath, MismatchedBenchmarkCountDies)
{
    const std::vector<std::string> benches = {"a", "b"};
    std::vector<std::vector<RunResult>> results = {{res("a", 1.0, 0)}};
    EXPECT_DEATH(buildMetricTable("x", benches, {"c1"}, results,
                                  metricIpc, 2, MeanKind::None),
                 "results for");
}

TEST(ResultsJson, WritesSchemaSourceAndEntries)
{
    ResultsJson json("unit-test");
    json.add("a/ipc", "insts/cycle", 1.5, "higher");
    json.add("a/bpki", "bus-accesses/kilo-inst", 9.25, "lower");
    EXPECT_EQ(json.size(), 2u);

    std::ostringstream os;
    json.write(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\": \"fdp-results-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"source\": \"unit-test\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"a/ipc\""), std::string::npos);
    EXPECT_NE(doc.find("\"better\": \"higher\""), std::string::npos);
    EXPECT_NE(doc.find("\"value\": 9.25"), std::string::npos);
}

TEST(ResultsJson, EscapesNamesForJson)
{
    ResultsJson json("quote\"and\\slash");
    json.add("tab\there", "unit", 1.0, "higher");
    std::ostringstream os;
    json.write(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("quote\\\"and\\\\slash"), std::string::npos);
    EXPECT_NE(doc.find("tab\\there"), std::string::npos);
}

TEST(ResultsJson, ValuesRoundTripExactly)
{
    const double value = 1.0 / 3.0;
    ResultsJson json("roundtrip");
    json.add("x", "unit", value, "higher");
    std::ostringstream os;
    json.write(os);
    const std::string doc = os.str();
    const std::string key = "\"value\": ";
    const std::size_t at = doc.find(key);
    ASSERT_NE(at, std::string::npos);
    EXPECT_DOUBLE_EQ(std::stod(doc.substr(at + key.size())), value);
}

TEST(ResultsJson, AddRunResultEmitsHeadlineMetrics)
{
    RunResult r;
    r.ipc = 1.25;
    ResultsJson json("run");
    json.addRunResult("swim/fdp", r);
    EXPECT_EQ(json.size(), 7u);
    std::ostringstream os;
    json.write(os);
    const std::string doc = os.str();
    for (const char *metric : {"ipc", "bpki", "accuracy", "lateness",
                               "pollution", "avg_miss_latency",
                               "bus_accesses"})
        EXPECT_NE(doc.find("swim/fdp/" + std::string(metric)),
                  std::string::npos)
            << metric;
}

TEST(ResultsJson, WriteFileProducesReadableDocument)
{
    const std::string path = testing::TempDir() + "fdp_results_test.json";
    ResultsJson json("file-test");
    json.add("x", "unit", 2.0, "lower");
    json.writeFile(path);

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_NE(ss.str().find("fdp-results-v1"), std::string::npos);
}

TEST(ResultsJsonDeath, BadBetterDirectionDies)
{
    ResultsJson json("bad");
    EXPECT_DEATH(json.add("x", "unit", 1.0, "sideways"),
                 "higher|lower");
}

TEST(ResultsJsonDeath, UnwritablePathDies)
{
    // A bad --out path is a user error: fatal (exit 1), naming the
    // path and the errno reason, not an abort.
    ResultsJson json("bad-path");
    EXPECT_EXIT(json.writeFile("/nonexistent-dir/results.json"),
                testing::ExitedWithCode(1),
                "cannot open results file /nonexistent-dir/results.json "
                "for writing: No such file");
}

TEST(Reporting, ResultsOutPathFindsFlag)
{
    const char *argv[] = {"prog", "--jobs", "4", "--out", "r.json"};
    EXPECT_EQ(parseSweepArgs(5, const_cast<char **>(argv), 1).out, "r.json");
}

TEST(Reporting, ResultsOutPathEmptyWhenAbsent)
{
    const char *argv[] = {"prog", "--jobs", "4"};
    EXPECT_EQ(parseSweepArgs(3, const_cast<char **>(argv), 1).out, "");
}

TEST(ReportingDeath, TrailingOutFlagDies)
{
    const char *argv[] = {"prog", "--out"};
    EXPECT_DEATH(parseSweepArgs(2, const_cast<char **>(argv), 1).out,
                 "--out requires");
}

TEST(Reporting, WriteSweepResultsCoversEveryCell)
{
    const std::string path = testing::TempDir() + "fdp_sweep_test.json";
    const std::vector<std::string> benches = {"a", "b"};
    const std::vector<std::vector<RunResult>> results = {
        {res("a", 1.0, 2.0), res("b", 1.5, 3.0)},
        {res("a", 1.1, 1.9), res("b", 1.6, 2.9)},
    };
    writeSweepResults(path, "sweep-test", benches, {"c1", "c2"}, results);

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string doc = ss.str();
    for (const char *name : {"a/c1/ipc", "b/c1/ipc", "a/c2/bpki",
                             "b/c2/bpki"})
        EXPECT_NE(doc.find(name), std::string::npos) << name;
}

TEST(Reporting, WriteSweepResultsNoopWithoutPath)
{
    // Must not die or create anything when --out was not given.
    writeSweepResults("", "sweep-test", {"a"}, {"c1"},
                      {{res("a", 1.0, 2.0)}});
}

TEST(ReportingDeath, WriteSweepResultsShapeMismatchDies)
{
    EXPECT_DEATH(writeSweepResults("/tmp/never-written.json",
                                   "sweep-test", {"a", "b"}, {"c1"},
                                   {{res("a", 1.0, 2.0)}}),
                 "results for");
}

TEST(Reporting, ConvenienceMetrics)
{
    RunResult r;
    r.ipc = 1.5;
    r.bpki = 9.0;
    r.accuracy = 0.8;
    r.lateness = 0.1;
    r.pollution = 0.05;
    EXPECT_DOUBLE_EQ(metricIpc(r), 1.5);
    EXPECT_DOUBLE_EQ(metricBpki(r), 9.0);
    EXPECT_DOUBLE_EQ(metricAccuracy(r), 0.8);
    EXPECT_DOUBLE_EQ(metricLateness(r), 0.1);
    EXPECT_DOUBLE_EQ(metricPollution(r), 0.05);
}

} // namespace
} // namespace fdp
