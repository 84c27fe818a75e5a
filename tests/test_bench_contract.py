"""What the benchmark in ``perfbench/`` relies on from the package.

The benchmark installs its tracer by looking names up on the package and
compares report digests with ones it records.  These tests read those
benchmark files, edit none, and fail when a package change would break them.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path

import pytest

from dp5links.report import run_checks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"bench_contract_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in load(PERFBENCH / "layertrace.py").FUNCTIONS
])
def test_every_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"dp5links.{module}"), attr))


def test_quadric_side_report_has_the_recorded_digest():
    workloads = load(PERFBENCH / "workloads.py")
    selection, digest = workloads.WORKLOADS["quadric-side"]
    report = run_checks(selection).to_json().encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == digest


def test_verify_all_digest_is_the_golden_digest():
    _, digest = load(PERFBENCH / "workloads.py").WORKLOADS["verify-all"]
    assert digest == load(Path(__file__).with_name("test_golden.py")).GOLDEN_SHA256
