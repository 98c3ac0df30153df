#!/usr/bin/env python3
"""Compare two sets of perfbench records, refusing cross-host comparisons.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files written by run.py
(.bench_build/perfbench/results/record-*.json) or directories holding
them; copy the results directory aside between the two revisions. Both
sides must come from the same host and build: the CPU model, nproc,
compiler, flags and build type of every record must agree, or the
comparison is refused (exit 2). The revisions may differ; that is the
point. For each workload and metric the report gives both medians, the
quartile spread of BASE, and the change against the metric's bound in
BENCHMARK.json.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu_model", "nproc", "compiler", "flags", "build_type")


def load(arg):
    paths = (sorted(glob.glob(os.path.join(arg, "record-*.json")))
             if os.path.isdir(arg) else [arg])
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    if not records:
        sys.exit("compare: no records in %s" % arg)
    return records


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = load(argv[1]), load(argv[2])
    hosts = {tuple(r["fingerprint"][k] for k in HOST_KEYS)
             for r in base + new}
    if len(hosts) != 1:
        print("compare: refused: the records come from different hosts or "
              "builds:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + json.dumps(dict(zip(HOST_KEYS, h))), file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print("revisions: base %s, new %s" % (
        sorted({r["fingerprint"]["revision"] for r in base}),
        sorted({r["fingerprint"]["revision"] for r in new})))
    worse = 0
    for wl in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for trace in (0, 1):
            b = [r for r in base if r["workload"] == wl and r["trace"] == trace]
            n = [r for r in new if r["workload"] == wl and r["trace"] == trace]
            if not b or not n:
                continue
            print("%s (trace %d; %d base runs, %d new runs)" % (
                wl, trace, len(b), len(n)))
            for name in b[0]["metrics"]:
                bv = [r["metrics"][name]["value"] for r in b]
                nv = [r["metrics"][name]["value"] for r in n]
                bm, nm = statistics.median(bv), statistics.median(nv)
                q = statistics.quantiles(bv, n=4) if len(bv) > 1 else [bm] * 3
                change = (nm - bm) / abs(bm) if bm else 0.0
                m = bounds.get(name, {})
                verdict = ""
                if "bound" in m:
                    bad = change > 0 if m["better"] == "lower" else change < 0
                    if bad and abs(change) > m["bound"]:
                        verdict = "WORSE than bound %g" % m["bound"]
                        worse += 1
                print("  %-30s base %-12.6g new %-12.6g %+7.2f%%  "
                      "base IQR/median %.3f %s" % (
                          name, bm, nm, 100 * change,
                          (q[2] - q[0]) / abs(bm) if bm else 0.0, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
