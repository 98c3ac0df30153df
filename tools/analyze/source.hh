/**
 * @file
 * Loading a source tree into lexed form.
 *
 * A SourceTree holds every .cc/.hh under the analyzed root's `src/`
 * and `tools/` directories, lexed and keyed by root-relative path with
 * forward slashes, plus the names of the test files under `tests/`.
 */

#ifndef FDP_ANALYZE_SOURCE_HH
#define FDP_ANALYZE_SOURCE_HH

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/token.hh"

namespace fdp::analyze
{

/** One lexed source file. */
struct SourceFile
{
    std::string relPath;  ///< e.g. "src/mem/cache.hh"
    LexedFile lx;

    bool isHeader() const
    {
        return relPath.size() > 3 &&
               relPath.compare(relPath.size() - 3, 3, ".hh") == 0;
    }
};

/** Every analyzed file of one root, sorted by relPath. */
struct SourceTree
{
    std::string root;
    std::vector<SourceFile> files;
    /** Every .cc under root/tests, by relPath: listed, not lexed (the
     *  test-pairing rule only asks whether one exists). */
    std::set<std::string> testFiles;

    /** The file at `relPath`, or nullptr. */
    const SourceFile *find(std::string_view relPath) const;
};

/**
 * Load and lex every .cc/.hh under root/src and root/tools, and list
 * every .cc under root/tests. Missing directories are skipped;
 * unreadable files are fatal (analysis over a partial tree would
 * silently under-report).
 */
SourceTree loadTree(const std::string &root);

/** True when `relPath` is `prefix` or lies under `prefix/`. */
bool pathUnder(std::string_view relPath, std::string_view prefix);

/** Leading directory components, e.g. dirOf("src/mem/cache.hh", 2) == "src/mem". */
std::string dirOf(std::string_view relPath, int components);

} // namespace fdp::analyze

#endif // FDP_ANALYZE_SOURCE_HH
