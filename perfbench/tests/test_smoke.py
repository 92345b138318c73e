#!/usr/bin/env python3
"""Smoke tests of the repo benchmark, at tiny input sizes (--smoke).

Each workload runs untraced and the traced run once; every metric that
BENCHMARK.json declares must print with its declared unit and a finite
value, and the correctness checks must run and pass. Run from the repo
root (builds into .bench_build/ on first use, about a minute):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import math
import os
import shutil
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
TIMEOUT_S = 900  # the first call builds


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        ["python3", RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=TIMEOUT_S)


class SmokeTest(unittest.TestCase):
    def check_result(self, done, metrics):
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_metrics_per_workload(self):
        spec = declared()
        for workload in spec["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_result(run_bench(workload["name"], 0),
                                  spec["end_to_end"])

    def test_traced_run_reports_every_layer_metric(self):
        spec = declared()
        self.check_result(run_bench(spec["workloads"][0]["name"], 1),
                          spec["per_layer"])

    def test_fails_without_sources(self):
        # A directory holding only the benchmark must exit non-zero
        # without printing a result.
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in declared()["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("ditl_scan", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
