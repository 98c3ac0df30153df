#!/usr/bin/env bash
# Run every static-analysis pass available on this machine.
#
# Always runs: fdp_analyze (built on demand) and its self-test, so a
# vacuous rule is itself a failure, then fdp_analyze over the tree,
# where any finding fails. clang-tidy and cppcheck run when
# installed and are skipped with a notice otherwise —
# the container toolchain has neither, and their absence must not break
# the pipeline. FDP_LINT_ONLY=1 skips them even when installed (used by
# the CI static job, which must not depend on whatever analyzer
# versions the runner image happens to carry).
#
# FDP_FINDINGS_JSON=path makes fdp_analyze write its fdp-findings-v1
# document there (CI archives it as an artifact).
#
# Exit status is nonzero if any pass that ran found a problem.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
ANALYZE_BIN="$BUILD_DIR/tools/analyze/fdp_analyze"
status=0

ensure_configured() {
    # (Re)configure if needed, and fail fast when the expected output
    # still does not appear: every later pass depends on it.
    if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
        cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null || return 1
    fi
    if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
        echo "error: cmake ran but $BUILD_DIR/compile_commands.json is" \
             "still missing (is CMAKE_EXPORT_COMPILE_COMMANDS off?)" >&2
        return 1
    fi
}

echo "== fdp_analyze: build =="
if ! ensure_configured || \
   ! cmake --build "$BUILD_DIR" --target fdp_analyze -j >/dev/null; then
    echo "error: could not build fdp_analyze" >&2
    exit 1
fi
if [ ! -x "$ANALYZE_BIN" ]; then
    echo "error: built fdp_analyze but $ANALYZE_BIN is missing" >&2
    exit 1
fi

echo "== fdp_analyze: self-test =="
"$ANALYZE_BIN" --root "$ROOT" --self-test || status=1

echo "== fdp_analyze: repo contracts =="
"$ANALYZE_BIN" --root "$ROOT" \
    ${FDP_FINDINGS_JSON:+--json "$FDP_FINDINGS_JSON"} || status=1

if [ "${FDP_LINT_ONLY:-0}" = "1" ]; then
    echo "== FDP_LINT_ONLY=1: clang-tidy/cppcheck skipped =="
elif command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy =="
    if ensure_configured; then
        find "$ROOT/src" "$ROOT/tools" -name '*.cc' -print0 |
            xargs -0 clang-tidy -p "$BUILD_DIR" --quiet || status=1
    else
        status=1
    fi
else
    echo "== clang-tidy not installed: skipped =="
fi

if [ "${FDP_LINT_ONLY:-0}" = "1" ]; then
    : # skipped above
elif command -v cppcheck >/dev/null 2>&1; then
    echo "== cppcheck =="
    if ensure_configured; then
        cppcheck --project="$BUILD_DIR/compile_commands.json" \
            --enable=warning,performance,portability --std=c++20 \
            --suppress=missingIncludeSystem --inline-suppr \
            --error-exitcode=2 --quiet || status=1
    else
        status=1
    fi
else
    echo "== cppcheck not installed: skipped =="
fi

if [ "$status" -eq 0 ]; then
    echo "static analysis: all passes clean"
else
    echo "static analysis: FAILURES (see above)"
fi
exit "$status"
