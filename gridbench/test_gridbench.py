#!/usr/bin/env python3
"""Tests of the grid benchmark itself.

Run from anywhere: python3 gridbench/test_gridbench.py
Builds the benchmark through run.py (as a benchmark run would), then makes
short runs of every workload.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small-tasks", "large-tasks", "verify-heavy")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload, trace, seed=3, seconds=1, waves=0):
    """Runs one workload through run.py; returns (stdout lines, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if waves:
        command += ["--waves", str(waves)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}")
    return lines, json.loads(lines[-1])


class EveryMetricPrinted(unittest.TestCase):
    """A short run of each workload prints every named metric and unit."""

    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in benchmark_spec()[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = run(workload, trace)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(expected))
                table = "\n".join(lines[:-1])
                for name, unit in expected.items():
                    metric = result["metrics"][name]
                    self.assertEqual(metric["unit"], unit, name)
                    self.assertIsInstance(metric["value"], (int, float))
                    self.assertRegex(table, rf"\s{name}\s+\S+\s+{unit}\s")
                self.assertIn('"git_revision"', table)
                self.assertIn("failed_ratio=0", table)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class ExactCountsRepeat(unittest.TestCase):
    """For a fixed seed and wave count, exact counts come out the same."""

    def test_wire_bytes(self):
        for workload in ("small-tasks", "large-tasks"):
            with self.subTest(workload=workload):
                first = run(workload, 0, seed=11, waves=4)[1]["metrics"]
                second = run(workload, 0, seed=11, waves=4)[1]["metrics"]
                self.assertEqual(first["wire_bytes_per_verdict"],
                                 second["wire_bytes_per_verdict"])

    def test_f_evaluations(self):
        counts = ("workloads.participant_f_evals_per_verdict",
                  "workloads.supervisor_f_evals_per_verdict",
                  "wire.frames_per_verdict")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 1, seed=11, waves=4)[1]["metrics"]
                second = run(workload, 1, seed=11, waves=4)[1]["metrics"]
                for name in counts:
                    self.assertEqual(first[name], second[name], name)

    def test_honest_f_evaluations_are_n_and_m(self):
        metrics = run("small-tasks", 1, seed=5, waves=2)[1]["metrics"]
        self.assertEqual(
            metrics["workloads.participant_f_evals_per_verdict"]["value"], 64)
        self.assertEqual(
            metrics["workloads.supervisor_f_evals_per_verdict"]["value"], 8)


if __name__ == "__main__":
    unittest.main(verbosity=2)
