"""Self-test of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

- the traced report has the same digest as the untraced one, and both equal
  the golden digest;
- two traced runs give identical ``*.calls`` counts;
- ``projgeo.residual_line.calls`` is nonzero on verify-all and zero on
  quadric-side, which proves that quadric-side bypasses lines27;
- children refuse ``-O`` and PYTHONOPTIMIZE, and a copy of the benchmark
  without the package's source fails without printing a result.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import unittest

import run
from workloads import WORKLOADS


def traced(runner: run.Runner, name: str) -> dict:
    return runner.spawn("traced", "--spans", str(runner.scratch / f"selftest-{name}.json"))


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        all_runner = run.Runner("verify-all", seed=1, seconds=0)
        cls.cold = all_runner.spawn("cold")
        cls.traced_all = [traced(all_runner, "all-a"), traced(all_runner, "all-b")]
        cls.traced_quadric = traced(run.Runner("quadric-side", seed=1, seconds=0), "quadric")

    def test_traced_digest_equals_untraced_digest(self):
        self.assertEqual(self.cold["failed"], 0)
        for result in self.traced_all:
            self.assertEqual(result["sha256"], WORKLOADS["verify-all"][1])
            self.assertEqual(result["failed"], 0)
        self.assertEqual(self.traced_quadric["sha256"], WORKLOADS["quadric-side"][1])

    def test_call_counts_repeat_exactly(self):
        a, b = (
            {k: v for k, v in r["metrics"].items() if k.endswith(".calls")}
            for r in self.traced_all
        )
        self.assertTrue(a)
        self.assertEqual(a, b)

    def test_quadric_side_bypasses_residuation(self):
        self.assertGreater(self.traced_all[0]["metrics"]["projgeo.residual_line.calls"], 0)
        self.assertEqual(self.traced_quadric["metrics"]["projgeo.residual_line.calls"], 0)
        self.assertEqual(self.traced_quadric["metrics"]["stage.cfg.s"], 0)


class Guards(unittest.TestCase):
    def child(self, *python_args: str, env: dict | None = None, cwd=run.ROOT):
        cmd = [sys.executable, *python_args, "child.py", "setup", "verify-all",
               "--scratch", str(run.RESULTS / "tmp")]
        return subprocess.run(cmd, cwd=cwd / "perfbench", capture_output=True, text=True,
                              timeout=60, env=env)

    def test_refuses_optimize_flag(self):
        proc = self.child("-O")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("refusing", proc.stderr)

    def test_refuses_pythonoptimize(self):
        proc = self.child(env=dict(os.environ, PYTHONOPTIMIZE="1"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("refusing", proc.stderr)

    def test_benchmark_alone_fails_without_result(self):
        alone = run.RESULTS / "tmp" / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(run.HERE, alone / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", alone)
        try:
            self.assertNotEqual(self.child(cwd=alone).returncode, 0)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-all",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=alone, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(alone)


if __name__ == "__main__":
    unittest.main(verbosity=2)
