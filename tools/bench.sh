#!/usr/bin/env bash
# Benchmark runner: builds the Release benchmark tree, runs the
# micro_structures (google-benchmark) and macro_throughput (end-to-end
# insts/s) suites, and merges both into one fdp-results-v1 JSON file,
# BENCH_<rev>.json by default.
#
#   tools/bench.sh                          # full run, BENCH_<rev>.json
#   tools/bench.sh --quick --out /tmp/b.json   # CI smoke: one fast pass
#
# Perf numbers are machine-dependent; nothing here gates on them (the
# benchmark of record is perfbench/, which A/B-compares two revisions
# on one host).

set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

BUILD_DIR="$ROOT/build-bench"
OUT=""
QUICK=0

usage() {
    echo "usage: tools/bench.sh [--build-dir DIR] [--out FILE] [--quick]" >&2
    exit 2
}

while [ $# -gt 0 ]; do
    case "$1" in
      --build-dir) [ $# -ge 2 ] || usage; BUILD_DIR="$2"; shift 2 ;;
      --out)       [ $# -ge 2 ] || usage; OUT="$2"; shift 2 ;;
      --quick)     QUICK=1; shift ;;
      *) usage ;;
    esac
done

if [ -z "$OUT" ]; then
    REV="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo local)"
    OUT="$ROOT/BENCH_${REV}.json"
fi

CMAKE_EXTRA=()
if command -v ccache >/dev/null 2>&1; then
    CMAKE_EXTRA+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

echo "==== bench: Release build in $BUILD_DIR ===="
cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
    "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target micro_structures macro_throughput

# The older google-benchmark in the image wants a plain double for
# --benchmark_min_time (no "s" suffix).
if [ "$QUICK" = 1 ]; then
    MIN_TIME=0.01
    MACRO_ARGS=(--insts 200000)
else
    MIN_TIME=0.2
    MACRO_ARGS=()
fi

MICRO_JSON="$BUILD_DIR/micro_structures.json"
MACRO_JSON="$BUILD_DIR/macro_throughput.json"

echo "==== bench: micro_structures (min_time=${MIN_TIME}s) ===="
"$BUILD_DIR/bench/micro_structures" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json > "$MICRO_JSON"

echo "==== bench: macro_throughput ===="
"$BUILD_DIR/bench/macro_throughput" \
    --trace-file "$BUILD_DIR/macro_throughput.fdptrace" \
    "${MACRO_ARGS[@]+"${MACRO_ARGS[@]}"}" > "$MACRO_JSON"

echo "==== bench: merging into $OUT ===="
python3 - "$MICRO_JSON" "$MACRO_JSON" "$OUT" <<'PYEOF'
import json
import sys

micro_path, macro_path, out_path = sys.argv[1:4]

with open(micro_path) as f:
    micro = json.load(f)
with open(macro_path) as f:
    macro = json.load(f)
if macro.get("schema") != "fdp-results-v1":
    sys.exit("macro_throughput did not emit fdp-results-v1")

entries = []
for bench in micro["benchmarks"]:
    # Skip aggregate rows (mean/median/stddev) if repetitions were used.
    if bench.get("run_type", "iteration") != "iteration":
        continue
    name = bench["name"].removeprefix("BM_")
    entries.append({"name": f"micro/{name}/ns", "unit": "ns/op",
                    "better": "lower", "value": float(bench["real_time"])})

entries.extend(macro["entries"])

with open(out_path, "w") as f:
    json.dump({"schema": "fdp-results-v1", "source": "tools/bench.sh",
               "entries": entries}, f, indent=2)
    f.write("\n")
print(f"wrote {len(entries)} entries to {out_path}")
PYEOF

echo "==== bench: done ===="
