#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds ../src) into .bench_build/perfbench; later runs
only rebuild what changed. The workload's report goes to stdout, then a
line stamping the host fingerprint, and last a one-line JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(plus a table setting each in-situ ns/call beside its micro-benchmark).
Every run also leaves a full record (fingerprint, metrics, in-situ
timings) in .bench_build/perfbench/results/ for compare.py.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
BUILD_TYPE = "Release"

# micro_structures cases beside the in-situ key they should predict.
MICRO_ROWS = [
    ("StreamPrefetcherObserve", "BM_StreamPrefetcherObserve/", "observe:stream"),
    ("StreamPrefetcherObserve (art)", "BM_StreamPrefetcherObserve/",
     "observe:stream@art"),
    ("GhbPrefetcherObserve", "BM_GhbPrefetcherObserve", "observe:ghb-cdc"),
    ("VldpObserve", "BM_VldpObserve", "observe:vldp"),
    ("DspatchObserve", "BM_DspatchObserve", "observe:dspatch"),
    ("ManagerIntervalTick", "BM_ManagerIntervalTick", "manager_tick"),
    ("WorkloadNext", "BM_WorkloadNext", "workload_next"),
    ("EventQueueScheduleService", "BM_EventQueueScheduleService",
     "event_service"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build(targets):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs()),
                    "--target"] + targets, stdout=sys.stderr, check=True)


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def source_revision():
    """git revision, with +dirty when src/, bench/ or perfbench/ have
    uncommitted changes; 'unknown' outside a git checkout."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src", "bench", "perfbench"],
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if rev.returncode != 0 or dirty.returncode != 0:
        return "unknown"
    return rev.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def fingerprint():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x)
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version[0] if version else compiler,
        "flags": flags,
        "build_type": build_type,
        "revision": source_revision(),
    }


def micro_table(in_situ):
    """Run the micro_structures cases and set them beside in-situ ns."""
    exe = os.path.join(BUILD, "perfbench_micro")
    if not os.path.exists(exe):
        return ["micro vs in-situ: perfbench_micro not built "
                "(google-benchmark missing)"]
    pattern = "|".join(sorted({m for _, m, _ in MICRO_ROWS}))
    out = subprocess.run([exe, "--benchmark_filter=" + pattern,
                          "--benchmark_format=json",
                          "--benchmark_min_time=0.1"],
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    micro = {}
    for b in json.loads(out)["benchmarks"]:
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b["time_unit"]]
        micro[b["name"]] = b["real_time"] * scale
    lines = ["micro vs in-situ (ns per call; in-situ has the calibrated "
             "tracing cost taken out; '-' = not exercised here)",
             "  %-30s %-22s %10s" % ("case", "micro", "in-situ")]
    for label, prefix, key in MICRO_ROWS:
        cases = [v for k, v in micro.items() if k.startswith(prefix)]
        m = "-" if not cases else "/".join("%.1f" % v for v in cases)
        v = in_situ.get(key)
        lines.append("  %-30s %-22s %10s" % (
            label, m, "-" if v is None else "%.1f" % v))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources at %s/src; run from a full "
            "checkout" % ROOT)
        return 2
    try:
        build(["fdp_perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if args.trace:
        try:
            build(["perfbench_micro"])
        except subprocess.CalledProcessError:
            log("perfbench: micro-benchmarks unavailable (no google-benchmark)")

    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(RESULTS, "raw-%s.json" % tag)
    work = tempfile.mkdtemp(prefix="work-%s-" % args.workload, dir=BUILD)
    cmd = [os.path.join(BUILD, "fdp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path, "--workdir", work]
    if args.trace:
        cmd += ["--spans", os.path.join(RESULTS, "spans-%s.json" % tag)]
    # The simulator's FDP_* switches (audits, cold sweeps, manager logs)
    # change what a run does; the benchmark always runs without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FDP_")}
    # Set-up, the timed phase, the checks and the base cells; at the
    # benchmark's 30 s this keeps a run within 3 minutes.
    timeout = max(170, 3 * args.seconds + 60)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % args.workload)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        log("perfbench: %s exited with %d" % (args.workload, proc.returncode))
        return 1
    with open(out_path) as f:
        raw = json.load(f)

    if args.trace:
        for line in micro_table(raw["in_situ"]):
            print(line)
    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    record = dict(raw, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, fingerprint=fp)
    with open(os.path.join(RESULTS, "record-%s.json" % tag), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    result = {k: raw[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
