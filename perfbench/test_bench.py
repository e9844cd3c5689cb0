#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py [-v]

Run from the repository root (builds under .bench_build/perfbench like
run.py). Covers:
  * the delivery gate: tests/gate_test.cpp deletes one tenant's flow rule
    through the controller before a wave and expects the run refused;
  * a short smoke run of every workload run.py accepts (the BENCHMARK.json
    ones and durable_ctl), untraced and traced, checking that the result
    line names exactly the BENCHMARK.json metrics with their units;
  * the contract's bare-directory case: with only BENCHMARK.json and
    perfbench/ present, run.py exits non-zero without printing a result.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

ROOT = Path.cwd() / ".bench_build" / "perfbench"
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=None, seconds=1):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class GateTest(unittest.TestCase):
    def test_deleted_flow_rule_fails_delivery_gate(self):
        binary = run.build(ROOT / "build", target="perfbench_gate_test")
        work = ROOT / "work" / "gate_test"
        proc = subprocess.run([str(binary), str(work)], stdout=subprocess.PIPE,
                              text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        res = run.parse_result(proc.stdout)
        self.assertIsNotNone(res, proc.stdout)
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        want = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual({m["name"]: m["unit"] for m in want},
                         {k: v["unit"] for k, v in res["metrics"].items()})
        self.assertIn("host: ", proc.stdout)
        if trace:
            for needle in ("tracing overhead:", "reconcile per packet",
                           "reconcile per txn"):
                self.assertIn(needle, proc.stdout)

    def test_workloads(self):
        for w in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check(w, trace)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_repository_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   "fleet_steady", "--seed", "1", "--seconds", "1",
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=tmp, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(run.parse_result(proc.stdout))


if __name__ == "__main__":
    ROOT.mkdir(parents=True, exist_ok=True)
    unittest.main()
