#!/usr/bin/env python3
"""Self-tests of the repository benchmark (perfbench/run.py).

    python3 perfbench/test_perfbench.py

Runs all four workloads at the shrunken `tiny` scale in both modes and
checks that each prints the result line, every metric listed in
BENCHMARK.json with its unit, no failed operation, and a digest equal to
the one pinned in perfbench/digests.json. Also checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and perfbench/. Takes seconds once the program is built.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("soa-large", "soa-faulted", "engine-mix", "sweepd-job")
TINY_SEED = 1


def run_bench(root, workload, trace, extra=()):
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(TINY_SEED),
               "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
               *extra]
    return subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=900, check=False)


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.pins = json.loads((HERE / "digests.json").read_text())

    def check_run(self, workload, trace):
        done = run_bench(ROOT, workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in self.spec[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        key = f"{workload}|tiny|1|{TINY_SEED}"
        self.assertIn(key, self.pins, "tiny digest not pinned")
        self.assertIn(f"digest {key} = {self.pins[key]}", done.stderr)

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)


class IncompleteCheckout(unittest.TestCase):
    def test_refuses_without_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            bare = pathlib.Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench(bare, "engine-mix", 0)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
