"""One repetition of a perfbench workload in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD --seed N --scratch DIR [--spans PATH]

MODE is one of
  setup   import dp5links and build a Context, nothing else;
  cold    setup, then the workload once, untraced and timed;
  traced  setup, then the workload once with the layer tracer installed;
  warm    stage-free timings: each check against a warm Context, or
          per-operation kernel times over untraced batches.

The child prints one JSON object as its last line of standard output.  It
refuses to run under ``python -O`` or with PYTHONOPTIMIZE set, since that
strips the ``assert`` statements certificates rely on, and it refuses to run
when ``dp5links`` is not imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

perf = time.perf_counter


def refuse_weaker_interpreter() -> None:
    if sys.flags.optimize != 0 or "PYTHONOPTIMIZE" in os.environ:
        sys.exit("perfbench: refusing to run with -O or PYTHONOPTIMIZE set: "
                 "it strips the asserts that certificates rely on")


def setup() -> float:
    """Import dp5links and build a Context; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = perf()
    import dp5links  # noqa: F401
    import dp5links.cli  # noqa: F401
    from dp5links.report import Context
    Context()
    elapsed = perf() - start
    if Path(dp5links.__file__).resolve().parent != (SRC / "dp5links").resolve():
        sys.exit(f"perfbench: dp5links resolves to {dp5links.__file__}, not {SRC}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_report(workload: str, data: bytes) -> tuple[int, int]:
    """(attempted, failed) checks of one report; a wrong digest fails all."""
    from workloads import WORKLOADS, check_ids

    ids = check_ids(workload)
    if hashlib.sha256(data).hexdigest() != WORKLOADS[workload][1]:
        return len(ids), len(ids)
    statuses = {c["id"]: c["status"] for c in json.loads(data)["checks"]}
    return len(ids), sum(statuses.get(cid) != "pass" for cid in ids)


def run_checks_cli(workload: str, scratch: Path) -> tuple[float, float, bytes]:
    """Time ``dp5links verify ... --format json``; return wall, cpu and report bytes."""
    import dp5links.cli
    from workloads import WORKLOADS

    out = scratch / f"report-{os.getpid()}.json"
    argv = ["verify", *WORKLOADS[workload][0], "--format", "json", "--output", str(out)]
    cpu0, start = time.process_time(), perf()
    dp5links.cli.main(argv)
    wall, cpu = perf() - start, time.process_time() - cpu0
    data = out.read_bytes()
    out.unlink()
    return wall, cpu, data


def mode_cold(workload: str, seed: int, scratch: Path) -> dict:
    setup_s = setup()
    if workload == "field-kernels":
        import kernels

        inputs = kernels.make_inputs(seed)
        cpu0, start = time.process_time(), perf()
        out = kernels.run(inputs)
        wall, cpu = perf() - start, time.process_time() - cpu0
        rss = peak_rss_mb()
        attempted, failed = kernels.check(inputs, out)
    else:
        wall, cpu, data = run_checks_cli(workload, scratch)
        rss = peak_rss_mb()
        attempted, failed = check_report(workload, data)
    return {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "attempted": attempted, "failed": failed}


def mode_traced(workload: str, seed: int, scratch: Path, spans_path: Path) -> dict:
    setup()
    from layertrace import Tracer

    tracer = Tracer()
    if workload == "field-kernels":
        import kernels

        inputs = kernels.make_inputs(seed)
        tracer.install()
        start = perf()
        out = kernels.run(inputs)
        wall = perf() - start
        metrics = tracer.metrics()
        attempted, failed = kernels.check(inputs, out)
        digest = None
    else:
        tracer.install()
        wall, _, data = run_checks_cli(workload, scratch)
        metrics = tracer.metrics()
        attempted, failed = check_report(workload, data)
        digest = hashlib.sha256(data).hexdigest()
    spans_path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "wall_s": wall,
        "stages": tracer.stage_records(),
        "metrics": metrics,
        "spans": tracer.span_records(),
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return {"wall_s": wall, "metrics": metrics, "sha256": digest,
            "attempted": attempted, "failed": failed}


WARM_REPEATS = 3
OP_REPEATS = 3


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf()
        fn()
        times.append(perf() - start)
    return statistics.median(times)


def mode_warm(workload: str, seed: int) -> dict:
    setup()
    if workload == "field-kernels":
        return warm_kernels(seed)
    from dp5links import report
    from workloads import check_ids

    ids = check_ids(workload)
    ctx = report.Context()
    rep = report.run_checks(ids, context=ctx)
    text = rep.to_json()
    attempted, failed = check_report(workload, text.encode("utf-8"))
    metrics = {f"report.check.{cid}.warm_s": median_time(
        lambda cid=cid: report.CHECK_FUNCTIONS[cid](ctx), WARM_REPEATS) for cid in ids}
    metrics["report.to_json.s"] = median_time(rep.to_json, WARM_REPEATS)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def warm_kernels(seed: int) -> dict:
    import kernels
    from dp5links import linalg

    inputs = kernels.make_inputs(seed)
    pairs, elements, stacks = inputs["mul"], inputs["inverse"], inputs["stacks"]
    out = kernels.run(inputs)
    timings = {
        "cyclo.mul.op_ns": (lambda: [a * b for a, b in pairs], len(pairs), 1e9),
        "cyclo.inverse.op_ns": (lambda: [a.inverse() for a in elements], len(elements), 1e9),
        "linalg.rank4x5.op_us": (lambda: [linalg.rank(m) for m in stacks], len(stacks), 1e6),
        "linalg.kernel.op_us": (lambda: [linalg.kernel_basis(m) for m in stacks],
                                len(stacks), 1e6),
    }
    metrics = {name: median_time(fn, OP_REPEATS) / n * scale
               for name, (fn, n, scale) in timings.items()}
    attempted, failed = kernels.check(inputs, out)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def main() -> int:
    refuse_weaker_interpreter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "cold", "traced", "warm"))
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if args.mode == "setup":
        result = {"setup_s": setup(), "peak_rss_mb": peak_rss_mb()}
    elif args.mode == "cold":
        result = mode_cold(args.workload, args.seed, args.scratch)
    elif args.mode == "traced":
        result = mode_traced(args.workload, args.seed, args.scratch, args.spans)
    else:
        result = mode_warm(args.workload, args.seed)
    result["flags"] = {name: getattr(sys.flags, name) for name in dir(sys.flags)
                       if not name.startswith(("_", "n_")) and name not in ("count", "index")}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
