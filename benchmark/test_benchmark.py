#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 benchmark/test_benchmark.py

Run from the repository root. Runs every workload at smoke size, untraced
and traced, with every correctness check on. Checks that each result
follows BENCHMARK.json, that a failed check fails a run, and that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def bench(workload, trace, cwd="."):
    r = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=900)
    last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
    return r, last


class Workloads(unittest.TestCase):
    def check_result(self, workload, trace, kind):
        r, last = bench(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        result = json.loads(last)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = result["metrics"]
        self.assertEqual(set(got), set(want))
        for name, m in got.items():
            self.assertEqual(m["unit"], want[name], name)
        self.assertIn("context ", r.stdout)
        return {k: v["value"] for k, v in got.items()}

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_result(w["name"], 0, "end_to_end")
                for name, value in metrics.items():
                    self.assertGreater(value, 0, name)

    def test_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check_result(w["name"], 1, "per_layer")
                self.assertGreaterEqual(m["unattributed_s"], 0)
                self.assertLess(m["unattributed_s"], m["traced_wall_s"])
                self.assertGreater(m["fuzz.elided_failures"], 0)
                self.assertEqual(m["profile.replayed_events"],
                                 m["capture.events"] * m["profile.barriers_scored"])


class Checks(unittest.TestCase):
    """Outputs that break a check fail the iteration."""

    def test_serve_balance(self):
        report = {"models": [{"model": "strict", "offered": 10, "completed": 8, "shed": 1}]}
        results = {"rate5e+06": {"rc": 0, "out": json.dumps(report)}}
        with self.assertRaises(run.Failure):
            run.WORKLOADS["serve-kv-batched"].outcome(results, None)

    def test_elided_must_be_caught(self):
        stock = {"cells": [{"failures": 0}]}
        elided = {"cells": [{"model": "epoch", "failures": 0, "first_failure": None}]}
        results = {"stock": {"rc": 0, "out": json.dumps(stock)},
                   "elided": {"rc": 1, "out": json.dumps(elided)}}
        with self.assertRaises(run.Failure):
            run.WORKLOADS["fuzz-matrix"].outcome(results, None)

    def test_failed_step_counts(self):
        results = {name: {"rc": 1, "out": ""} for name in ("capture", "analyze", "profile")}
        attempted, failed, _, _ = run.WORKLOADS["capture-cwl-2t"].outcome(results, None)
        self.assertEqual((attempted, failed), (3, 3))


class Contract(unittest.TestCase):
    def test_fails_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: the build
        # fails, and no result is printed.
        bare = Path(".bench_work/bare")
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy("BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__", "target"))
            r, last = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(r.returncode, 0)
            self.assertFalse(last.startswith("{"), last)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
