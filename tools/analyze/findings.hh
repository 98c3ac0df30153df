/**
 * @file
 * Findings: what every fdp_analyze check emits, and the
 * `fdp-findings-v1` JSON serialization CI archives.
 */

#ifndef FDP_ANALYZE_FINDINGS_HH
#define FDP_ANALYZE_FINDINGS_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace fdp::analyze
{

/** One rule violation at one source location. */
struct Finding
{
    std::string file;  ///< path relative to the analyzed root
    int line = 0;      ///< 1-based
    std::string rule;  ///< rule id, e.g. "unordered-iter"
    std::string message;

    friend bool operator==(const Finding &, const Finding &) = default;
};

/** Stable order: file, line, rule, message. */
bool findingLess(const Finding &a, const Finding &b);

/** Serialize as an `fdp-findings-v1` document (sorted, trailing \n). */
std::string toFindingsJson(const std::vector<Finding> &findings);

/** Print one finding per line in file:line: [rule] message form. */
void printFindings(std::ostream &os, const std::vector<Finding> &findings);

} // namespace fdp::analyze

#endif // FDP_ANALYZE_FINDINGS_HH
