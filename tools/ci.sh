#!/usr/bin/env bash
# CI entrypoint: the full correctness gate for one change.
#
# Stages (run all by default, or select one with --stage so local runs
# and the GitHub Actions jobs share this single entrypoint):
#
#   tier1   default (RelWithDebInfo) build + full ctest, plus the
#           benchmark package (perfbench/) built and unit-tested
#   asan    ASan+UBSan build + full ctest with FDP_AUDIT=1, so every
#           run also audits structural invariants at each sampling
#           interval boundary
#   tsan    ThreadSanitizer build; runs the harness/sim tests (the ones
#           that exercise the parallel sweep scheduler and the logging
#           sink) plus quick multi-threaded sweeps, one of them warmed
#           into a result store
#   static  tools/run_static_analysis.sh (repo lint always;
#           clang-tidy/cppcheck when installed)
#   bench-diff
#           trajectory gate: builds a Release tree, runs golden_metrics
#           and diffs its document against the committed
#           BENCH_quick_baseline.json with fdp_results. Every entry is a
#           simulated metric and must match EXACTLY — any drift is a
#           semantics change that needs a baseline regen (and a
#           result_store.hh kSimCoreVersion bump) to land. Then runs one
#           fast pass of the micro_structures cases, which must all run
#           and include the ones the design notes quote. Also smokes the
#           sweep result store: a warm --resume of a paper sweep must
#           skip every cached cell and print bit-identical stdout, and a
#           resume over one tampered entry must rerun exactly that cell.
#
# Fails fast: any stage failing stops the pipeline with its exit status.
# ccache is used automatically when installed.

set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

CMAKE_EXTRA=()
if command -v ccache >/dev/null 2>&1; then
    CMAKE_EXTRA+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

usage() {
    echo "usage: tools/ci.sh" \
        "[--stage tier1|asan|tsan|static|bench-diff|all]" >&2
    exit 2
}

STAGE=all
while [ $# -gt 0 ]; do
    case "$1" in
      --stage)
        [ $# -ge 2 ] || usage
        STAGE="$2"
        shift 2
        ;;
      *)
        usage
        ;;
    esac
done

# expect_cli_error MESSAGE PREFIX CMD...: run CMD (its output kept in
# PREFIX.out/.err) and require a clean command-line rejection: exit
# status 1, nothing on stdout, and the fixed text MESSAGE on stderr.
expect_cli_error() {
    local message="$1" out="$2"
    shift 2
    local status=0
    "$@" > "$out.out" 2> "$out.err" || status=$?
    if [ "$status" -ne 1 ] || [ -s "$out.out" ] ||
        ! grep -qF -- "$message" "$out.err"; then
        echo "cli smoke: \`$*' should exit 1 with \`$message' on" \
            "stderr and nothing on stdout (exit $status)" >&2
        exit 1
    fi
}

stage_tier1() {
    echo "==== stage tier1: build + tests ===="
    cmake -B "$ROOT/build-ci" -S "$ROOT" "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$ROOT/build-ci" -j "$JOBS"
    ctest --test-dir "$ROOT/build-ci" --output-on-failure -j "$JOBS"

    echo "==== stage tier1: quickstart statistics smoke ===="
    # The public-API example dumps its stat groups with no publish step,
    # so each dumped counter must equal the summary line that reads the
    # same count through its accessor.
    local qout="$ROOT/build-ci/quickstart.out"
    "$ROOT/build-ci/examples/quickstart" > "$qout"
    local pair stat line dumped summary
    for pair in "mem.l2_misses:L2 demand misses" \
        "core.retired:retired micro-ops"; do
        stat="${pair%%:*}"
        line="${pair#*:}"
        dumped="$(awk -v s="$stat" '$1 == s { print $2 }' "$qout")"
        summary="$(awk -F' *: ' -v l="$line" '$1 == l { print $2 }' "$qout")"
        if [ -z "$summary" ] || [ "$dumped" != "$summary" ]; then
            echo "quickstart smoke: $stat dumps \`$dumped' but" \
                "\`$line' reads \`$summary'" >&2
            exit 1
        fi
    done
    echo "quickstart smoke: dumped statistics match the summary lines"

    echo "==== stage tier1: benchmark package build + tests ===="
    # perfbench/ is its own CMake project compiled against the simulator
    # library API, so a src/ change that breaks it must fail here.
    cmake -B "$ROOT/build-ci/perfbench" -S "$ROOT/perfbench" \
        "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$ROOT/build-ci/perfbench" -j "$JOBS" \
        --target fdp_perfbench perfbench_tests
    "$ROOT/build-ci/perfbench/perfbench_tests"
    python3 -m unittest discover -s "$ROOT/perfbench/tests"

    echo "==== stage tier1: command-line flag tables ===="
    # Every binary parses argv against its one flag table: an unknown
    # flag or a flag missing its value exits 1 naming it, before any
    # simulation. The paper binaries take the sweep flags, so a figure
    # grid is byte-identical on 1 and 4 workers and writes --out.
    local cdir="$ROOT/build-ci/cli-smoke"
    rm -rf "$cdir" && mkdir -p "$cdir"
    expect_cli_error "unknown flag \`--bogus'" "$cdir/fig06" \
        "$ROOT/build-ci/bench/fig06_counter_distribution" --bogus
    expect_cli_error "--out requires a value" "$cdir/fig09" \
        "$ROOT/build-ci/bench/fig09_overall" --out
    expect_cli_error "unknown flag \`--bogus'" "$cdir/fdp_sim" \
        "$ROOT/build-ci/bench/fdp_sim" --bogus
    expect_cli_error "unknown flag \`--manager'" "$cdir/manager" \
        "$ROOT/build-ci/bench/fdp_sim" --manager explore
    "$ROOT/build-ci/bench/fig01_aggressiveness" --insts 100000 --jobs 1 \
        --out "$cdir/jobs1.json" > "$cdir/jobs1.out" 2> /dev/null
    "$ROOT/build-ci/bench/fig01_aggressiveness" --insts 100000 --jobs 4 \
        --out "$cdir/jobs4.json" > "$cdir/jobs4.out" 2> /dev/null
    diff "$cdir/jobs1.out" "$cdir/jobs4.out"
    diff "$cdir/jobs1.json" "$cdir/jobs4.json"
    grep -q '"schema": "fdp-results-v1"' "$cdir/jobs1.json"
    # fdp_results takes operands besides its flags, but an unknown "--"
    # argument is still a rejected flag, never a store path to create.
    (cd "$cdir" &&
        expect_cli_error "unknown flag \`--dryrun'" "$cdir/gc" \
            "$ROOT/build-ci/bench/fdp_results" gc --dryrun &&
        expect_cli_error "unknown flag \`--help'" "$cdir/ls" \
            "$ROOT/build-ci/bench/fdp_results" ls --help)
    expect_cli_error "unknown flag \`--strict-timing'" "$cdir/diff" \
        "$ROOT/build-ci/bench/fdp_results" diff \
        "$ROOT/BENCH_quick_baseline.json" "$cdir/jobs1.json" --strict-timing
    if [ -e "$cdir/--dryrun" ] || [ -e "$cdir/--help" ]; then
        echo "cli smoke: fdp_results made a directory named after a flag" >&2
        exit 1
    fi
    # So do the fdp_trace and fdp_snap subcommands, through the same
    # walker: the flag is rejected before any file is read or written.
    expect_cli_error "unknown flag \`--bogus'" "$cdir/trace-dump" \
        "$ROOT/build-ci/bench/fdp_trace" dump "$cdir/no.fdptrace" --bogus
    expect_cli_error "unknown flag \`--bogus'" "$cdir/trace-record" \
        "$ROOT/build-ci/bench/fdp_trace" record --bench swim --ops 10 \
        --out "$cdir/rec.fdptrace" --bogus
    expect_cli_error "unknown flag \`--bogus'" "$cdir/snap-info" \
        "$ROOT/build-ci/bench/fdp_snap" info "$cdir/no.fdpsnap" --bogus
    if [ -e "$cdir/rec.fdptrace" ]; then
        echo "cli smoke: fdp_trace record wrote a trace despite a bad flag" >&2
        exit 1
    fi
    echo "cli smoke: bad flags rejected cleanly; fig01 bit-identical" \
        "across --jobs 1/4 with its --out file written"

    echo "==== stage tier1: trace record/verify/replay round trip ===="
    # Record swim through the live generator, prove the file passes a
    # full integrity pass, then prove replay is bit-identical to the
    # recording run — stdout tables and results JSON both.
    local tdir="$ROOT/build-ci/trace-smoke"
    rm -rf "$tdir" && mkdir -p "$tdir"
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --insts 200000 \
        --record "$tdir/swim.fdptrace" --out "$tdir/record.json" \
        > "$tdir/record.out"
    "$ROOT/build-ci/bench/fdp_trace" info "$tdir/swim.fdptrace"
    "$ROOT/build-ci/bench/fdp_trace" verify "$tdir/swim.fdptrace"
    "$ROOT/build-ci/bench/fdp_sim" --trace "$tdir/swim.fdptrace" \
        --insts 200000 --out "$tdir/replay.json" > "$tdir/replay.out"
    diff "$tdir/record.out" "$tdir/replay.out"
    diff "$tdir/record.json" "$tdir/replay.json"
    echo "trace smoke: replay bit-identical to the recording run"

    echo "==== stage tier1: snapshot round-trip smoke ===="
    # Warm swim in place (FDP_NO_WARM_FORK=1: the cold path, so stderr
    # must hold no sweep-snap line) and measure, then warm once into an
    # fdpsnap-v1 image and fork the measured run from it with
    # --load-snap: stdout tables and results JSON must be bit-identical
    # or the snapshot missed machine state. One leg per memory-side
    # section layout: the flat DRAM model, the FR-FCFS controller
    # (dramctl), and a separate prefetch cache.
    local ndir="$ROOT/build-ci/snap-smoke"
    rm -rf "$ndir" && mkdir -p "$ndir"
    local leg machine
    for leg in flat ctrl pcache; do
        case "$leg" in
            flat) machine=() ;;
            ctrl) machine=(--dram controller --channels 4
                           --row-policy adaptive) ;;
            pcache) machine=(--pcache-kb 64) ;;
        esac
        FDP_NO_WARM_FORK=1 "$ROOT/build-ci/bench/fdp_sim" --bench swim \
            "${machine[@]}" --warmup 200000 --insts 200000 \
            --out "$ndir/$leg-cold.json" > "$ndir/$leg-cold.out" \
            2> "$ndir/$leg-cold.err"
        if grep -q '^sweep-snap:' "$ndir/$leg-cold.err"; then
            echo "snap smoke: the $leg in-place leg forked" >&2
            exit 1
        fi
        "$ROOT/build-ci/bench/fdp_sim" --bench swim "${machine[@]}" \
            --warmup 200000 --save-snap "$ndir/$leg.fdpsnap" \
            > /dev/null 2>&1
        "$ROOT/build-ci/bench/fdp_snap" verify "$ndir/$leg.fdpsnap"
        "$ROOT/build-ci/bench/fdp_sim" --load-snap "$ndir/$leg.fdpsnap" \
            "${machine[@]}" --insts 200000 --out "$ndir/$leg-fork.json" \
            > "$ndir/$leg-fork.out" 2> /dev/null
        diff "$ndir/$leg-cold.out" "$ndir/$leg-fork.out"
        diff "$ndir/$leg-cold.json" "$ndir/$leg-fork.json"
    done
    echo "snap smoke: forked runs bit-identical to in-place warm-up" \
        "(flat DRAM, controller, prefetch cache)"

    echo "==== stage tier1: warm-fork sweep determinism smoke ===="
    # A warmed multi-config sweep normally warms each benchmark once and
    # forks every cell from the snapshot; FDP_NO_WARM_FORK=1 forces the
    # per-cell cold warm-up path. The two must be bit-identical.
    local fdir="$ROOT/build-ci/fork-smoke"
    rm -rf "$fdir" && mkdir -p "$fdir"
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --bench mgrid \
        --warmup 100000 --insts 100000 --jobs 2 \
        --out "$fdir/fork.json" > "$fdir/fork.out" 2> /dev/null
    FDP_NO_WARM_FORK=1 "$ROOT/build-ci/bench/fdp_sim" \
        --bench swim --bench mgrid --warmup 100000 --insts 100000 \
        --jobs 2 --out "$fdir/cold.json" > "$fdir/cold.out" 2> /dev/null
    diff "$fdir/cold.out" "$fdir/fork.out"
    diff "$fdir/cold.json" "$fdir/fork.json"
    # The same sweep backed by a store at --jobs 4: the pool captures
    # both warm images into snaps/. Then a torn image (a killed writer)
    # must read as a miss: the rerun recaptures exactly that one, heals
    # it byte for byte, and prints the cold run's tables.
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --bench mgrid \
        --warmup 100000 --insts 100000 --jobs 4 --store "$fdir/store" \
        --out "$fdir/store.json" > "$fdir/store.out" 2> /dev/null
    diff "$fdir/cold.out" "$fdir/store.out"
    diff "$fdir/cold.json" "$fdir/store.json"
    local image
    image="$(ls "$fdir"/store/snaps/*.fdpsnap | head -n 1)"
    cp "$image" "$fdir/image.orig"
    truncate -s 100 "$image"
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --bench mgrid \
        --warmup 100000 --insts 100000 --jobs 4 --store "$fdir/store" \
        --out "$fdir/healed.json" > "$fdir/healed.out" \
        2> "$fdir/healed.err"
    diff "$fdir/cold.out" "$fdir/healed.out"
    diff "$fdir/cold.json" "$fdir/healed.json"
    grep -q "^sweep-snap: .* store-hits=1 captured=1 " "$fdir/healed.err" || {
        echo "fork smoke: a torn image must cost exactly one capture:" >&2
        cat "$fdir/healed.err" >&2
        exit 1
    }
    cmp "$fdir/image.orig" "$image"
    echo "fork smoke: warm-fork sweep bit-identical to cold warm-up," \
        "with and without a store; a torn image healed byte for byte"

    echo "==== stage tier1: 2-core mix determinism smoke ===="
    # One bandwidth-bound co-run end to end, then the same mix again
    # with a different worker count: stdout tables and results JSON
    # must be bit-identical or the sweep scheduler leaked its thread
    # interleaving into the simulation.
    local mdir="$ROOT/build-ci/mix-smoke"
    rm -rf "$mdir" && mkdir -p "$mdir"
    "$ROOT/build-ci/bench/fdp_sim" --cores 2 --mix mix2-stream \
        --insts 100000 --jobs 1 --out "$mdir/jobs1.json" \
        > "$mdir/jobs1.out" 2> /dev/null
    "$ROOT/build-ci/bench/fdp_sim" --cores 2 --mix mix2-stream \
        --insts 100000 --jobs 4 --out "$mdir/jobs4.json" \
        > "$mdir/jobs4.out" 2> /dev/null
    diff "$mdir/jobs1.out" "$mdir/jobs4.out"
    diff "$mdir/jobs1.json" "$mdir/jobs4.json"
    # The same with a warm-up phase: every core warms, the machine
    # crosses the measurement boundary, then measures.
    "$ROOT/build-ci/bench/fdp_sim" --cores 2 --mix mix2-stream \
        --warmup 50000 --insts 100000 --jobs 1 \
        --out "$mdir/warm1.json" > "$mdir/warm1.out" 2> /dev/null
    "$ROOT/build-ci/bench/fdp_sim" --cores 2 --mix mix2-stream \
        --warmup 50000 --insts 100000 --jobs 4 \
        --out "$mdir/warm4.json" > "$mdir/warm4.out" 2> /dev/null
    diff "$mdir/warm1.out" "$mdir/warm4.out"
    diff "$mdir/warm1.json" "$mdir/warm4.json"
    # And audited at every interval boundary (a violation panics).
    FDP_AUDIT=1 "$ROOT/build-ci/bench/fdp_sim" --cores 2 --mix mix2-stream \
        --warmup 50000 --insts 100000 --jobs 4 > /dev/null
    echo "mix smoke: co-run bit-identical across --jobs 1 and --jobs 4," \
        "cold and warmed; audited warmed run clean"

    echo "==== stage tier1: manager determinism smoke ===="
    # The adaptive prefetcher manager explores/exploits off interval
    # feedback; its FSM must be a pure function of the simulation, so a
    # managed sweep is bit-identical across worker counts too.
    local gdir="$ROOT/build-ci/manager-smoke"
    rm -rf "$gdir" && mkdir -p "$gdir"
    # The selection names, in order: the one prefetcher table's rows.
    "$ROOT/build-ci/bench/fdp_sim" --list-prefetchers > "$gdir/list.out"
    printf '%s\n' none stream ghb stride vldp dspatch nextline manager |
        diff - "$gdir/list.out"
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --bench mgrid \
        --prefetcher manager --insts 200000 --jobs 1 \
        --out "$gdir/jobs1.json" > "$gdir/jobs1.out" 2> /dev/null
    "$ROOT/build-ci/bench/fdp_sim" --bench swim --bench mgrid \
        --prefetcher manager --insts 200000 --jobs 4 \
        --out "$gdir/jobs4.json" > "$gdir/jobs4.out" 2> /dev/null
    diff "$gdir/jobs1.out" "$gdir/jobs4.out"
    diff "$gdir/jobs1.json" "$gdir/jobs4.json"
    echo "manager smoke: managed sweep bit-identical across --jobs 1/4"

    echo "==== stage tier1: FR-FCFS 8-core determinism smoke ===="
    # The FR-FCFS memory controller schedules per channel off the FDP
    # accuracy tiers; an 8-core co-run through it (plus its alone
    # baselines) must stay bit-identical across worker counts.
    local ddir="$ROOT/build-ci/dram-smoke"
    rm -rf "$ddir" && mkdir -p "$ddir"
    "$ROOT/build-ci/bench/fdp_sim" --mix mix8-bw --dram controller \
        --channels 4 --insts 50000 --jobs 1 --out "$ddir/jobs1.json" \
        > "$ddir/jobs1.out" 2> /dev/null
    "$ROOT/build-ci/bench/fdp_sim" --mix mix8-bw --dram controller \
        --channels 4 --insts 50000 --jobs 4 --out "$ddir/jobs4.json" \
        > "$ddir/jobs4.out" 2> /dev/null
    diff "$ddir/jobs1.out" "$ddir/jobs4.out"
    diff "$ddir/jobs1.json" "$ddir/jobs4.json"
    # Weighted service with a QoS cap: the pick scans every queued read
    # with no early exit, so it gets its own --jobs 1/4 diff.
    "$ROOT/build-ci/bench/fdp_sim" --mix mix8-bw --dram controller \
        --channels 4 --qos cap:4+weighted --insts 50000 --jobs 1 \
        --out "$ddir/qos1.json" > "$ddir/qos1.out" 2> /dev/null
    "$ROOT/build-ci/bench/fdp_sim" --mix mix8-bw --dram controller \
        --channels 4 --qos cap:4+weighted --insts 50000 --jobs 4 \
        --out "$ddir/qos4.json" > "$ddir/qos4.out" 2> /dev/null
    diff "$ddir/qos1.out" "$ddir/qos4.out"
    diff "$ddir/qos1.json" "$ddir/qos4.json"
    # And audited at every interval boundary: the controller's key/slab
    # recount and the stream table's index recounts run each time.
    FDP_AUDIT=1 "$ROOT/build-ci/bench/fdp_sim" --mix mix8-mixed \
        --dram controller --insts 50000 --jobs 4 > /dev/null
    echo "dram smoke: FR-FCFS 8-core co-runs bit-identical across" \
        "--jobs 1/4 (default and cap:4+weighted QoS); audited run clean"
}

stage_asan() {
    echo "==== stage asan: ASan+UBSan build + tests (FDP_AUDIT=1) ===="
    cmake -B "$ROOT/build-asan" -S "$ROOT" \
        -DFDP_SANITIZE="address;undefined" \
        "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$ROOT/build-asan" -j "$JOBS"
    FDP_AUDIT=1 ctest --test-dir "$ROOT/build-asan" --output-on-failure \
        -j "$JOBS"
}

stage_tsan() {
    echo "==== stage tsan: ThreadSanitizer build + parallel-harness ===="
    cmake -B "$ROOT/build-tsan" -S "$ROOT" -DFDP_SANITIZE=thread \
        "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$ROOT/build-tsan" -j "$JOBS" \
        --target test_harness test_sim test_trace test_mc \
        fig09_overall mix05_corun fdp_sim_cli
    # The threaded surface: pool + scheduler + logging sink tests, the
    # trace suite (its golden test drives the pool at --jobs 4), the
    # multi-core suite (its mix-runner tests sweep co-runs and alone
    # baselines through the pool), then real multi-threaded sweeps for
    # the single-core (cold, and warmed into a store) and co-run paths. mix05_corun gets a
    # small explicit budget — the full default is minutes under TSan.
    # halt_on_error so a race fails CI.
    TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/test_harness"
    TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/test_sim"
    TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/test_trace"
    TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/test_mc"
    TSAN_OPTIONS="halt_on_error=1" \
        "$ROOT/build-tsan/bench/fig09_overall" --quick --jobs 4 \
        > /dev/null
    # A warmed sweep into a fresh store, twice: the first pass hashes
    # the store keys and captures and writes the warm images on the
    # pool, the second reads them back there.
    rm -rf "$ROOT/build-tsan/warm-store"
    for _ in 1 2; do
        TSAN_OPTIONS="halt_on_error=1" \
            "$ROOT/build-tsan/bench/fdp_sim" --bench swim --bench mgrid \
            --bench art --bench mcf --warmup 100000 --insts 100000 \
            --jobs 4 --store "$ROOT/build-tsan/warm-store" > /dev/null
    done
    TSAN_OPTIONS="halt_on_error=1" \
        "$ROOT/build-tsan/bench/mix05_corun" --mix mix2-stream \
        --mix mix4-bw --mix mix4-zoo --insts 50000 --jobs 4 > /dev/null
    # The widest co-run through the FR-FCFS controller: 8 per-core FDP
    # loops feeding one multi-channel scheduler under the pool.
    TSAN_OPTIONS="halt_on_error=1" \
        "$ROOT/build-tsan/bench/fdp_sim" --mix mix8-bw \
        --dram controller --channels 4 --insts 50000 --jobs 4 \
        > /dev/null
    echo "tsan stage: zero data races reported"
}

stage_static() {
    echo "==== stage static: static analysis ===="
    # The findings JSON lands in the build dir so CI can archive it.
    BUILD_DIR="$ROOT/build-ci" \
        FDP_FINDINGS_JSON="$ROOT/build-ci/fdp-findings.json" \
        "$ROOT/tools/run_static_analysis.sh"
}

stage_bench_diff() {
    echo "==== stage bench-diff: trajectory gate vs committed baseline ===="
    local bdir="$ROOT/build-bench-ci"
    # The binary revision feeds every sweep-store key, so cells cached
    # by an earlier commit (e.g. out of an actions/cache restore) can
    # never satisfy a lookup from this one.
    FDP_BINARY_REV="$(git -C "$ROOT" rev-parse --short HEAD \
        2>/dev/null || echo local)"
    export FDP_BINARY_REV
    cmake -B "$bdir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
        "${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"}"
    cmake --build "$bdir" -j "$JOBS" --target golden_metrics \
        micro_structures fdp_results_cli fig09_overall
    "$bdir/bench/golden_metrics" --insts 200000 \
        --trace-file "$bdir/golden_metrics.fdptrace" \
        > "$bdir/golden-fresh.json"
    # Exact on every entry. The verdict JSON is archived by the workflow
    # on failure.
    "$bdir/bench/fdp_results" diff \
        "$ROOT/BENCH_quick_baseline.json" "$bdir/golden-fresh.json" \
        --verdict "$bdir/bench-diff-verdict.json"

    echo "==== stage bench-diff: micro-benchmark smoke ===="
    # One fast pass: every case must run, and the ones DESIGN.md quotes
    # must exist. Their timings gate nothing; perfbench/ measures speed.
    # The older google-benchmark in the image wants a plain double for
    # --benchmark_min_time (no "s" suffix).
    "$bdir/bench/micro_structures" --benchmark_min_time=0.01 \
        --benchmark_format=json > "$bdir/micro.json"
    python3 - "$bdir/micro.json" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    names = {b["name"].removeprefix("BM_")
             for b in json.load(f)["benchmarks"]}
required = ("CacheAccessHit", "GhbPrefetcherObserve", "StreamFsmTransition",
            "WorkloadNext", "StatScalarIncrement", "StatBatchedIncrement",
            "VldpObserve", "DspatchObserve", "ManagerIntervalTick",
            "DramSchedulePick", "DramBankTick")
missing = [name for name in required if name not in names]
if missing:
    sys.exit(f"micro smoke: missing required cases {missing}")
print(f"micro smoke: {len(names)} cases ran, all {len(required)} "
      "required present")
PYEOF

    echo "==== stage bench-diff: sweep-store resume smoke ===="
    # Cold paper sweep populating a fresh store, then a warm resume at
    # a different worker count: every cell must come from the store
    # (misses=0) and stdout must be bit-identical to the cold run.
    # Keep $sdir/store itself: the workflow restores it from
    # actions/cache, and stale-revision entries are misses by key.
    local sdir="$bdir/store-smoke"
    mkdir -p "$sdir"
    rm -f "$sdir"/cold.* "$sdir"/warm.*
    "$bdir/bench/fig09_overall" --quick --jobs 2 \
        --store "$sdir/store" > "$sdir/cold.out" 2> "$sdir/cold.err"
    "$bdir/bench/fig09_overall" --quick --jobs 4 \
        --store "$sdir/store" --resume \
        > "$sdir/warm.out" 2> "$sdir/warm.err"
    diff "$sdir/cold.out" "$sdir/warm.out"
    grep -q "misses=0" "$sdir/warm.err" || {
        echo "store smoke: warm resume re-simulated cached cells:" >&2
        grep "sweep-store:" "$sdir/warm.err" >&2 || true
        exit 1
    }
    echo "store smoke: warm resume hit every cell, stdout bit-identical"

    # A tampered entry reads as a miss, never as a wrong result: with
    # one of this revision's entries holding a string for "ipc", a
    # resume at another worker count re-simulates exactly that cell
    # and still prints the cold run's stdout.
    rm -f "$sdir"/tampered.*
    local victim
    victim="$(grep -lF "\"binary_rev\": \"$FDP_BINARY_REV\"" \
        "$sdir"/store/*.json | head -n 1)"
    sed -i 's/^    "ipc": .*,$/    "ipc": "fast",/' "$victim"
    grep -q '"ipc": "fast"' "$victim"
    "$bdir/bench/fig09_overall" --quick --jobs 4 \
        --store "$sdir/store" --resume \
        > "$sdir/tampered.out" 2> "$sdir/tampered.err"
    diff "$sdir/cold.out" "$sdir/tampered.out"
    grep -q "misses=1$" "$sdir/tampered.err" || {
        echo "store smoke: a tampered entry must cost exactly one miss:" >&2
        grep "sweep-store:" "$sdir/tampered.err" >&2 || true
        exit 1
    }
    echo "store smoke: tampered entry missed and reran, stdout bit-identical"
}

case "$STAGE" in
  tier1)  stage_tier1 ;;
  asan)   stage_asan ;;
  tsan)   stage_tsan ;;
  static) stage_static ;;
  bench-diff) stage_bench_diff ;;
  all)
    stage_tier1
    stage_asan
    stage_tsan
    stage_static
    stage_bench_diff
    ;;
  *) usage ;;
esac

echo "==== CI: stage(s) '$STAGE' passed ===="
