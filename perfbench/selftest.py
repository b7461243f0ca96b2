#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at its tiny smoke size, untraced and traced, and checks
that the result line holds exactly the metrics `BENCHMARK.json` names, with
their units. Negative tests tamper with a persisted row and corrupt a shard
image, and each must count as a failed operation with a nonzero exit. A
copy of the benchmark without the workspace beside it must refuse to run.
"""

import argparse
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own module: metric tables and steps)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    """Runs the benchmark; returns (exit code, parsed last stdout line or
    None, stdout)."""
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout


def tiny(workload, trace):
    return bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--scale", "tiny")


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        self.assertEqual([w["name"] for w in CONTRACT["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in CONTRACT["per_layer"]}, run.PER_LAYER)

    def test_reference_digests_are_hex(self):
        refs = json.loads((HERE / "reference.json").read_text())
        self.assertEqual(set(refs), set(run.WORKLOADS))
        for seeds in refs.values():
            self.assertIn(str(run.HELD_OUT_SEED), seeds)
            for digest in seeds.values():
                self.assertEqual(len(digest), 16)
                int(digest, 16)


class Smoke(unittest.TestCase):
    def check(self, workload, trace, table):
        code, result, out = tiny(workload, trace)
        self.assertEqual(code, 0, out)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, table)
        for name in table:
            self.assertIn(name, out)
        return result["metrics"]

    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0, run.END_TO_END)
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)
                layers = self.check(workload, 1, run.PER_LAYER)
                self.assertGreater(layers["trace.coverage"]["value"], 0.5)
                self.assertGreater(layers["verify_s"]["value"], 0)
                self.assertEqual(layers["failed_frac"]["value"], 0)


def tamper_row(runs):
    """Changes the measured value of the first persisted row."""
    rows = next(runs.glob("*/*/rows.jsonl"))
    lines = rows.read_text().splitlines()
    row = json.loads(lines[0])
    row["measured"] += 1
    lines[0] = json.dumps(row, separators=(",", ":"))
    rows.write_text("\n".join(lines) + "\n")


def tamper_shard(work):
    """Flips the last payload byte of the first shard image."""
    image = sorted((work / "snap").glob("*.shards/*.lclg"))[0]
    data = bytearray(image.read_bytes())
    data[-1] ^= 0xFF
    image.write_bytes(bytes(data))


class Negative(unittest.TestCase):
    """Drives the benchmark's own steps (set-up, pass, replay) on a tiny
    input, tampering between them; a worker that aborts counts as a failed
    operation, as it does in a benchmark run."""

    @classmethod
    def setUpClass(cls):
        cls.env = run.hermetic_env()
        cls.binary = run.build(cls.env)

    def steps(self, workload, name, *steps):
        args = argparse.Namespace(workload=workload, seed=7, scale="tiny", trace=0)
        work = ROOT / ".bench_work" / f"selftest-{name}"
        result = run.Run(None)
        try:
            for step in steps:
                try:
                    step(args, work, result)
                except run.WorkerError as e:
                    result.count(1, 1, [f"aborted: {e}"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return result

    def test_tampered_row_is_a_failed_operation(self):
        b, env = self.binary, self.env
        result = self.steps(
            "grid-zoo", "row",
            lambda a, w, r: run.setup(b, env, a, w, r),
            lambda a, w, r: run.timed_pass(b, env, a, w, w / "runs-0", r),
            lambda a, w, r: self.assertEqual(r.failed, 0, r.errors),
            lambda a, w, r: tamper_row(w / "runs-0"),
            lambda a, w, r: run.replay(b, env, w / "runs-0", r))
        self.assertGreaterEqual(result.failed, 1)

    def test_corrupted_shard_image_is_a_failed_operation(self):
        b, env = self.binary, self.env
        result = self.steps(
            "store-pods", "shard",
            lambda a, w, r: run.setup(b, env, a, w, r),
            lambda a, w, r: tamper_shard(w),
            lambda a, w, r: run.timed_pass(b, env, a, w, w / "runs-0", r))
        self.assertGreaterEqual(result.failed, 1)

    def test_refuses_to_run_without_the_workspace(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            code, result, _ = bench("--workload", "grid-zoo", "--seed", "1", "--seconds", "1",
                                    "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
