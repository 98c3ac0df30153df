/** @file Semantic-check tests over synthetic in-memory trees. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/checks.hh"
#include "analyze/lexer.hh"

namespace
{

using namespace fdp::analyze;

SourceTree
tree(const std::string &relPath, const std::string &text)
{
    SourceTree t;
    t.files.push_back({relPath, lex(text)});
    return t;
}

std::vector<Finding>
firing(const SourceTree &t, const std::string &ruleId)
{
    std::vector<Finding> out;
    for (const Finding &f : runChecks(t))
        if (f.rule == ruleId)
            out.push_back(f);
    return out;
}

TEST(Checks, UnorderedIterationFiresButDeclarationAloneDoesNot)
{
    SourceTree bad = tree("src/mem/a.cc",
                          "std::unordered_map<int, int> m;\n"
                          "void f() { for (auto &kv : m) (void)kv; }\n");
    EXPECT_EQ(firing(bad, "unordered-iter").size(), 1u);

    SourceTree decl = tree("src/mem/a.cc",
                           "std::unordered_map<int, int> m;\n"
                           "int g() { return m.count(3); }\n");
    EXPECT_TRUE(firing(decl, "unordered-iter").empty());
}

TEST(Checks, CatalogRulesAreUniqueAndNamed)
{
    const std::vector<CheckInfo> &cat = checkCatalog();
    ASSERT_GE(cat.size(), 14u);
    for (std::size_t i = 0; i < cat.size(); ++i)
        for (std::size_t j = i + 1; j < cat.size(); ++j)
            EXPECT_STRNE(cat[i].rule, cat[j].rule);
}

TEST(Checks, StringLiteralsNeverMatchKeywords)
{
    // Regression: the analyzer once flagged its own diagnostics.
    SourceTree t = tree("src/mem/a.cc",
                        "const char *msg = \"do not use new or delete\";\n");
    EXPECT_TRUE(firing(t, "no-raw-new").empty());
}

TEST(Checks, RawNewInMacroBodyFires)
{
    SourceTree t = tree("src/mem/a.cc", "#define MK(T) (new T())\n");
    EXPECT_EQ(firing(t, "no-raw-new").size(), 1u);
}

TEST(Checks, AuditCoverageSkipsConstStructAndAuditable)
{
    // Top-level const member: immutable, not auditable state.
    SourceTree c = tree("src/mem/a.hh",
                        "#ifndef FDP_MEM_A_HH\n#define FDP_MEM_A_HH\n"
                        "class K {\n  const std::vector<int> fixed_;\n};\n"
                        "#endif\n");
    EXPECT_TRUE(firing(c, "audit-coverage").empty());

    // Structs are passive records audited by their owners.
    SourceTree s = tree("src/mem/a.hh",
                        "#ifndef FDP_MEM_A_HH\n#define FDP_MEM_A_HH\n"
                        "struct R {\n  std::vector<int> rows;\n};\n"
                        "#endif\n");
    EXPECT_TRUE(firing(s, "audit-coverage").empty());

    // const inside template arguments is still mutable state.
    SourceTree m = tree("src/mem/a.hh",
                        "#ifndef FDP_MEM_A_HH\n#define FDP_MEM_A_HH\n"
                        "class K {\n  std::vector<const int *> ptrs_;\n};\n"
                        "#endif\n");
    EXPECT_EQ(firing(m, "audit-coverage").size(), 1u);

    // Deriving Auditable (directly or transitively) satisfies the rule.
    SourceTree a = tree("src/mem/a.hh",
                        "#ifndef FDP_MEM_A_HH\n#define FDP_MEM_A_HH\n"
                        "class Auditable {};\n"
                        "class Mid : public Auditable {};\n"
                        "class K : public Mid {\n"
                        "  std::vector<int> state_;\n};\n"
                        "#endif\n");
    EXPECT_TRUE(firing(a, "audit-coverage").empty());
}

TEST(Checks, AuditCoverageScopeIsStatefulDirsOnly)
{
    SourceTree t = tree("src/workload/a.hh",
                        "#ifndef FDP_WORKLOAD_A_HH\n"
                        "#define FDP_WORKLOAD_A_HH\n"
                        "class K {\n  std::vector<int> v_;\n};\n"
                        "#endif\n");
    EXPECT_TRUE(firing(t, "audit-coverage").empty());
}

TEST(Checks, TypedCoreIdFiresAcrossLinesButNotInMc)
{
    const std::string code = "void f() {\n  int\n    core_id = 3;\n"
                             "  (void)core_id;\n}\n";
    EXPECT_EQ(firing(tree("src/core/a.cc", code), "typed-core-id").size(),
              1u);
    EXPECT_TRUE(firing(tree("src/mc/a.cc", code), "typed-core-id").empty());
}

TEST(Checks, UnitMixingNeedsDifferentUnits)
{
    SourceTree bad = tree("src/sim/a.cc",
                          "long f(long busyCycles, long warmupInsts)\n"
                          "{ return busyCycles + warmupInsts; }\n");
    EXPECT_EQ(firing(bad, "unit-mixing").size(), 1u);

    SourceTree same = tree("src/sim/a.cc",
                           "long f(long busyCycles, long idleCycles)\n"
                           "{ return busyCycles + idleCycles; }\n");
    EXPECT_TRUE(firing(same, "unit-mixing").empty());
}

TEST(Checks, SuppressionOnSameOrPreviousLine)
{
    SourceTree above = tree(
        "src/mem/a.cc",
        "// fdp-analyze: suppress(rng-only, fixture reason)\n"
        "int f() { return rand(); }\n");
    EXPECT_TRUE(firing(above, "rng-only").empty());

    SourceTree inline_ = tree(
        "src/mem/a.cc",
        "int f() { return rand(); } "
        "// fdp-analyze: suppress(rng-only, fixture reason)\n");
    EXPECT_TRUE(firing(inline_, "rng-only").empty());

    SourceTree tooFar = tree(
        "src/mem/a.cc",
        "// fdp-analyze: suppress(rng-only, fixture reason)\n"
        "\n\nint f() { return rand(); }\n");
    EXPECT_EQ(firing(tooFar, "rng-only").size(), 1u);
}

TEST(Checks, MultiLineSuppressionReasonCoversNextLine)
{
    SourceTree t = tree(
        "src/mem/a.cc",
        "// fdp-analyze: suppress(rng-only, a reason long enough\n"
        "// to wrap onto a second comment line)\n"
        "int f() { return rand(); }\n");
    EXPECT_TRUE(firing(t, "rng-only").empty());
    EXPECT_TRUE(firing(t, "suppression").empty());
}

TEST(Checks, SuppressFileCoversWholeFile)
{
    SourceTree t = tree(
        "src/mem/a.cc",
        "// fdp-analyze: suppress-file(rng-only, fixture reason)\n"
        "int f() { return rand(); }\n"
        "int g() { return rand(); }\n");
    EXPECT_TRUE(firing(t, "rng-only").empty());
}

TEST(Checks, ReasonlessSuppressionIsAFinding)
{
    SourceTree t = tree("src/mem/a.cc",
                        "// fdp-analyze: suppress(rng-only)\nint x;\n");
    EXPECT_EQ(firing(t, "suppression").size(), 1u);
}

TEST(Checks, WallClockAndThreadingAllowlists)
{
    // No file is exempt from wall-clock: the sweep stopwatch's file
    // carries a reasoned suppression, and the mix runner none.
    const std::string clock =
        "void f() { auto t = std::chrono::steady_clock::now(); (void)t; }\n";
    EXPECT_EQ(firing(tree("src/core/a.cc", clock), "wall-clock").size(), 1u);
    EXPECT_EQ(
        firing(tree("src/mc/mix_runner.cc", clock), "wall-clock").size(), 1u);

    // Threads start in sweep_pool.cc only, not even in its header.
    const std::string thread = "void f() { std::thread t([]{}); t.join(); }\n";
    EXPECT_EQ(
        firing(tree("src/core/a.cc", thread), "pool-only-threading").size(),
        1u);
    EXPECT_EQ(firing(tree("src/harness/sweep_pool.hh", thread),
                     "pool-only-threading")
                  .size(),
              1u);
    EXPECT_TRUE(firing(tree("src/harness/sweep_pool.cc", thread),
                       "pool-only-threading")
                    .empty());
}

TEST(Checks, FileIoAllowlistIsTraceAndSnapOnly)
{
    const std::string io = "void f() { std::ofstream out(\"x\"); }\n";
    EXPECT_EQ(firing(tree("src/mem/a.cc", io), "file-io").size(), 1u);
    EXPECT_TRUE(firing(tree("src/trace/a.cc", io), "file-io").empty());
    EXPECT_TRUE(firing(tree("src/snap/a.cc", io), "file-io").empty());
    // The harness writes and reads its artifacts through snap's
    // readFileBytes and writeFileAtomic.
    for (const char *harness :
         {"src/harness/reporting.cc", "src/harness/result_store.cc",
          "src/harness/results_diff.cc"})
        EXPECT_EQ(firing(tree(harness, io), "file-io").size(), 1u)
            << harness;
}

TEST(Checks, LoggingOnlyFlagsPrintfCallsOutsideTheSinks)
{
    const std::string call =
        "void f() { std::printf(\"x\"); fputs(s, f); putchar('c'); }\n";
    EXPECT_EQ(firing(tree("src/mem/a.cc", call), "logging-only").size(), 3u);
    EXPECT_TRUE(firing(tree("src/sim/logging.cc", call), "logging-only")
                    .empty());
    EXPECT_TRUE(
        firing(tree("src/sim/table.cc", call), "logging-only").empty());
    // Tools print their own reports; the rule covers src/ only.
    EXPECT_TRUE(
        firing(tree("tools/fdp_results.cc", call), "logging-only").empty());
    // Prose and data are not calls, and neither is a longer name.
    EXPECT_TRUE(firing(tree("src/mem/a.cc",
                            "// printf(\"x\")\n"
                            "const char *s = \"printf(\";\n"
                            "void my_printf(int);\n"),
                       "logging-only")
                    .empty());
}

TEST(Checks, TestPairingWantsTheMatchingTestFile)
{
    SourceTree t = tree("src/mem/cache.cc", "int x;\n");
    ASSERT_EQ(firing(t, "test-pairing").size(), 1u);
    EXPECT_EQ(firing(t, "test-pairing")[0].message,
              "no test file tests/mem/test_cache.cc");
    t.testFiles.insert("tests/mem/test_cache.cc");
    EXPECT_TRUE(firing(t, "test-pairing").empty());

    // Headers and tools need no test file of their own.
    EXPECT_TRUE(firing(tree("src/mem/cache.hh", "#ifndef FDP_MEM_CACHE_HH\n"
                                                "#define FDP_MEM_CACHE_HH\n"
                                                "#endif\n"),
                       "test-pairing")
                    .empty());
    EXPECT_TRUE(
        firing(tree("tools/fdp_sim.cc", "int x;\n"), "test-pairing").empty());
}

TEST(Checks, PointerOrderFlagsMapsSetsAndIntptrCasts)
{
    EXPECT_EQ(firing(tree("src/mem/a.cc", "std::map<X *, int> byPtr;\n"),
                     "pointer-order")
                  .size(),
              1u);
    EXPECT_EQ(firing(tree("src/mem/a.cc",
                          "auto v = reinterpret_cast<uintptr_t>(p);\n"),
                     "pointer-order")
                  .size(),
              1u);
    EXPECT_TRUE(firing(tree("src/mem/a.cc", "std::map<int, X *> ptrVal;\n"),
                       "pointer-order")
                    .empty());
}

TEST(Checks, RngEnginesAndLegacyCallsFire)
{
    EXPECT_EQ(
        firing(tree("src/core/a.cc", "std::mt19937 gen;\n"), "rng-only")
            .size(),
        1u);
    EXPECT_EQ(firing(tree("src/core/a.cc", "int f() { return rand(); }\n"),
                     "rng-only")
                  .size(),
              1u);
    // The project's own Rng wrapper is the sanctioned source.
    EXPECT_TRUE(
        firing(tree("src/sim/rng.hh",
                    "#ifndef FDP_SIM_RNG_HH\n#define FDP_SIM_RNG_HH\n"
                    "class Rng { std::mt19937 gen_; };\n#endif\n"),
               "rng-only")
            .empty());
}

} // namespace
