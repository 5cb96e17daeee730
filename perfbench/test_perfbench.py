"""Smoke tests of the benchmark's output contract.

    python3 -m unittest perfbench/test_perfbench.py

Run from the root of a checkout. Every workload runs tiny (`--smoke`) in
both modes, and the result line must carry exactly the metrics that
BENCHMARK.json names for that mode, each with its unit. The benchmark's
release profile must match the root workspace's.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys
import tomllib
import unittest

ROOT = pathlib.Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=1200,
    )


class ReleaseProfile(unittest.TestCase):
    def test_the_benchmark_builds_with_the_root_release_profile(self):
        def release(path):
            return tomllib.loads(path.read_text())["profile"]["release"]

        self.assertEqual(release(ROOT / "perfbench" / "Cargo.toml"), release(ROOT / "Cargo.toml"))


class SmokeRun(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"])
        report = json.loads(lines[-2])["perfbench_report"]
        self.assertEqual(set(report["host"]), {"nproc", "cpu", "rustc", "rev"})
        self.assertRegex(report["digest"], r"^[0-9a-f]{16}$")
        if trace:
            self.assertEqual(len(report["trace_overhead_bases"]), 2, "both bases are shown")

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_refuses_without_the_program(self):
        bare = ROOT / ".bench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, dirs_exist_ok=True)
        try:
            done = run("--workload", "synth-batch", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
