/** @file The fdp-findings-v1 document CI archives, byte for byte. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/findings.hh"

namespace
{

using namespace fdp::analyze;

TEST(Findings, JsonBytesArePinned)
{
    // Out of order on purpose: the document sorts by file, then line.
    const std::vector<Finding> findings = {
        {"src/b.cc", 1, "layering", "line one\nline two"},
        {"src/a.cc", 3, "rng-only", "msg with \"quotes\" and \\slash"},
    };
    EXPECT_EQ(toFindingsJson(findings),
              R"({
  "schema": "fdp-findings-v1",
  "findings": [
    {"file": "src/a.cc", "line": 3, "rule": "rng-only", "message": "msg with \"quotes\" and \\slash"},
    {"file": "src/b.cc", "line": 1, "rule": "layering", "message": "line one\nline two"}
  ]
}
)");
    EXPECT_EQ(toFindingsJson({}),
              "{\n  \"schema\": \"fdp-findings-v1\",\n  \"findings\": []\n}\n");
}

} // namespace
