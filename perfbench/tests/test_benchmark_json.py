"""Checks on BENCHMARK.json and on the metrics the benchmark emits.

    python3 -m unittest discover -s perfbench/tests

The emitted-metric checks run the built benchmark binary on shrunken
cells and are skipped until perfbench/run.py has built it.
"""

import json
import os
import re
import subprocess
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "fdp_perfbench")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOADS = ["paper-sweep", "zoo-replay", "mix8-ctrl"]
# cells_failed is not listed: it is 0 on a healthy tree and a benchmark
# metric may never be 0, so it travels as the result's failed/attempted
# counts (and is printed by name in the report).
END_TO_END = ["mops_per_s", "wall_s", "setup_s", "peak_rss_mb", "ipc_gmean",
              "bpki_amean", "ipc_gain_vs_va", "bpki_saving_vs_va",
              "weighted_speedup"]
PER_LAYER = [
    "workload.next_ns", "workload.next_calls", "cpu.step_self_ns_per_op",
    "cpu.rob_full_frac", "mem.access_self_ns", "mem.accesses",
    "mem.l2_miss_rate", "mem.mshr_stalls", "mem.miss_latency_cycles",
    "mc.access_self_ns", "mc.cross_pollution", "prefetch.observe_ns",
    "prefetch.observe_calls", "prefetch.candidates_per_call",
    "prefetch.accuracy", "prefetch.drop_queue_full", "core.intervals",
    "core.hook_ns", "core.level_mean", "core.lateness", "core.pollution",
    "manage.tick_ns", "manage.ticks", "dram.bus_accesses", "dram.bus_util",
    "dram.row_hit_rate", "dram.queue_depth_mean", "sim.events",
    "sim.service_self_ns_per_event", "harness.warm_capture_s",
    "harness.fork_run_s", "snap.image_bytes", "unattributed_frac",
    "tracing.overhead_x",
]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJson(unittest.TestCase):
    def test_lists_exactly_the_workloads_and_metrics(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], PER_LAYER)

    def test_names_and_units_use_the_allowed_characters(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"] + spec["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_bounds(self):
        spec = load_spec()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))


@unittest.skipUnless(os.path.exists(BINARY), "benchmark binary not built")
class EmittedMetrics(unittest.TestCase):
    def run_workload(self, workload, trace):
        with tempfile.TemporaryDirectory(dir=os.path.dirname(BINARY)) as d:
            out = os.path.join(d, "out.json")
            subprocess.run([BINARY, "--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", str(trace),
                            "--scale-down", "50",
                            "--out", out, "--workdir", d],
                           check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            with open(out) as f:
                return json.load(f)

    def test_every_workload_emits_exactly_the_listed_metrics(self):
        spec = load_spec()
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    r = self.run_workload(workload, trace)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in r["metrics"].items()},
                        {m["name"]: m["unit"] for m in listed})
                    if trace == 0:
                        self.assertTrue(all(v["value"] != 0
                                            for v in r["metrics"].values()))


if __name__ == "__main__":
    unittest.main()
