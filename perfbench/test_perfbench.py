#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny size.

    python3 perfbench/test_perfbench.py

Checks that each run passes its output checks, that the printed metric
names and units match BENCHMARK.json (end-to-end with --trace 0,
per-layer with --trace 1), and that the program's counts repeat exactly
across two traced runs with one seed.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 5
# Every workload dn_perfbench implements: BENCHMARK.json's set plus the
# extra ones kept for layer studies (README.md).
WORKLOADS = ("batch_warm", "batch_cold", "bus_large", "eco_serve")
# Counts that depend on thread timing, not on the work done.
TIMING_DEPENDENT = {"clarinet.cache.contention_waits"}


def deterministic(spec_metric):
    name = spec_metric["name"]
    if name in TIMING_DEPENDENT:
        return False
    return spec_metric["unit"] == "count" or name.startswith("sim.")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.benchmark_spec(run.ROOT)
        cls.binary = run.build(run.ROOT)
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")

    def run_workload(self, workload, trace):
        rc, res = run.run_once(run.ROOT, self.binary, workload, SEED, 1, trace,
                               tiny=True)
        self.assertEqual(rc, 0, f"{workload} trace={trace} exit code")
        self.assertIsNotNone(res, f"{workload} trace={trace} printed no JSON")
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], f"{workload} output checks")
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        return res

    def assert_matches_spec(self, res, specs):
        printed = [(n, m["unit"]) for n, m in res["metrics"].items()]
        self.assertEqual(printed, [(m["name"], m["unit"]) for m in specs])

    def test_end_to_end_metrics_match_spec(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.run_workload(w, 0)
                self.assert_matches_spec(res, self.spec["end_to_end"])
                for name, m in res["metrics"].items():
                    self.assertNotEqual(m["value"], 0, name)

    def test_traced_counts_repeat(self):
        counted = [m["name"] for m in self.spec["per_layer"] if deterministic(m)]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = self.run_workload(w, 1)
                second = self.run_workload(w, 1)
                self.assert_matches_spec(first, self.spec["per_layer"])
                for name in counted:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"],
                                     f"{w}: {name}")


if __name__ == "__main__":
    unittest.main()
