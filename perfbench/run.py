"""perfbench: cold-start benchmark of the dp5links verifier.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py                  # every workload in turn, untraced

Every timed repetition is a fresh interpreter (``child.py``), one at a time.
A run first starts a discarded warm-up child (it compiles the bytecode and
checks the guards), then rounds of PROBES_PER_ROUND set-up probes, which
only import dp5links and build a Context, each followed by one cold
repetition of the workload, for ``--seconds`` on average.  Each metric is the
median over the run's samples.  With ``--trace 1`` the run adds one traced
child and one warm child and reports the per-layer metrics instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record with
every sample and the environment goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ALL_CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

PROBES_PER_ROUND = 6
TAIL_MARGIN_S = 115.0  # the traced and warm children after the timed rounds

# name -> unit of the end-to-end and per-layer metrics, as BENCHMARK.json lists them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Per-layer metrics that only one kind of workload produces; the others read 0.
WORKLOAD_SPECIFIC = {
    "cyclo.mul.op_ns", "cyclo.inverse.op_ns", "linalg.rank4x5.op_us", "linalg.kernel.op_us",
    *(f"report.check.{cid}.warm_s" for cid in ALL_CHECKS),
}

NOTE = ("wall and CPU clocks only; shared {nproc}-core sandbox: "
        "no hardware counters and no system-wide tracing")


class ChildFailed(RuntimeError):
    """A child interpreter exited with an error or did not print a result."""


class Runner:
    """Spawns the children of one run, one at a time, within one deadline."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + seconds + TAIL_MARGIN_S
        self.scratch = RESULTS / "tmp"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def spawn(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload,
               "--seed", str(self.seed), "--scratch", str(self.scratch), *extra]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child passed the run deadline") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, flags: dict) -> dict:
    nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "sys_flags": flags,
        "git_commit": git_commit(),
        "seed": seed,
        "note": NOTE.format(nproc=nproc),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed, seconds)
    runner.spawn("setup")  # warm-up: bytecode compiled, guards checked; discarded
    probes: list[dict] = []
    colds: list[dict] = []
    rounds: list[float] = []
    start = time.monotonic()
    # A round is PROBES_PER_ROUND set-up probes and one cold repetition.  The
    # next round starts while half a round of median length still fits in
    # --seconds, so that a run lasts --seconds on average.
    while not rounds or time.monotonic() - start + statistics.median(rounds) / 2 < seconds:
        began = time.monotonic()
        probes += [runner.spawn("setup") for _ in range(PROBES_PER_ROUND)]
        colds.append(runner.spawn("cold"))
        rounds.append(time.monotonic() - began)
    attempted = sum(c["attempted"] for c in colds)
    failed = sum(c["failed"] for c in colds)
    setups = [p["setup_s"] for p in probes] + [c["setup_s"] for c in colds]
    end_to_end = {
        "wall_s": median_of(colds, "wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median_of(colds, "peak_rss_mb"),
    }
    result = {
        "workload": workload,
        "seconds": seconds,
        "environment": environment(seed, colds[0]["flags"]),
        "end_to_end": end_to_end,
        "samples": {
            "wall_s": [c["wall_s"] for c in colds],
            "setup_s": setups,
            "peak_rss_mb": [c["peak_rss_mb"] for c in colds],
            "cpu_s": [c["cpu_s"] for c in colds],
        },
    }
    if trace:
        spans_path = RESULTS / f"{workload}-seed{seed}-spans.json"
        traced = runner.spawn("traced", "--spans", str(spans_path))
        warm = runner.spawn("warm")
        produced = {**traced["metrics"], **warm["metrics"],
                    "proc.cpu_s": median_of(colds, "cpu_s"),
                    "trace_overhead_ratio": traced["wall_s"] / end_to_end["wall_s"]}
        missing = set(PER_LAYER) - set(produced) - WORKLOAD_SPECIFIC
        if missing:
            raise ChildFailed(f"no value for per-layer metrics {sorted(missing)}")
        result["per_layer"] = {name: produced.get(name, 0) for name in PER_LAYER}
        result["traced"] = {"wall_s": traced["wall_s"], "sha256": traced["sha256"],
                            "spans_file": str(spans_path.relative_to(ROOT))}
        attempted += traced["attempted"] + warm["attempted"]
        failed += traced["failed"] + warm["failed"]
    result.update(attempted=attempted, failed=failed, fail_ratio=failed / attempted)
    return result


def print_result(result: dict, trace: bool) -> None:
    n = len(result["samples"]["wall_s"])
    print(f"== {result['workload']} (seed {result['environment']['seed']}, "
          f"{n} cold repetitions, {len(result['samples']['setup_s'])} set-ups)")
    for name, unit in END_TO_END.items():
        k = len(result["samples"][name])
        print(f"{name:>42} {result['end_to_end'][name]:14.6f} {unit:<6} median of {k}")
    print(f"{'fail_ratio':>42} {result['fail_ratio']:14.6f} {'ratio':<6} "
          f"{result['failed']} of {result['attempted']}")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"{name:>42} {result['per_layer'][name]:14.6f} {unit}")
    metrics = ({k: {"value": result["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
               if trace else
               {k: {"value": result["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()})
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cold-start benchmark of dp5links")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize != 0 or "PYTHONOPTIMIZE" in os.environ:
        print("perfbench: refusing to run with -O or PYTHONOPTIMIZE set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "dp5links" / "__init__.py").is_file():
        print(f"perfbench: no dp5links source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
        except ChildFailed as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        out = RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print_result(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
