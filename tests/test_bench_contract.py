"""What the benchmark in ``perfbench/`` relies on from the package.

The benchmark installs its tracer by looking names up on the package and
compares report digests with ones it records.  These tests read those
benchmark files, edit none, and fail when a package change would break them.
"""

import ast
import hashlib
import importlib
import importlib.util
from functools import cached_property
from pathlib import Path

import pytest

from dp5links.cyclo import FieldElement
from dp5links.projgeo import ProjLine
from dp5links.report import Context, Report, run_checks

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


def test_every_traced_stage_is_a_cached_property_of_the_context():
    for stage in load(PERFBENCH / "layertrace.py").STAGES:
        assert isinstance(Context.__dict__.get(stage), cached_property), stage


# the methods layertrace wraps on their class, looked up in the class __dict__
WRAPPED_METHODS = [(FieldElement, "__mul__"), (FieldElement, "__add__"),
                   (FieldElement, "inverse"), (ProjLine, "meets"), (Report, "to_json")]


def calls_of(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == name]


def test_every_wrapped_method_sits_in_its_class_dict():
    tree = ast.parse((PERFBENCH / "layertrace.py").read_text(encoding="utf-8"))
    wrapped = sorted(call.args[1].value for call in calls_of(tree, "_wrap_method"))
    assert wrapped == sorted(attr for _, attr in WRAPPED_METHODS)
    for cls, attr in WRAPPED_METHODS:
        assert callable(cls.__dict__.get(attr)), f"{cls.__name__}.{attr}"


def package_lookups(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each dp5links.<module>.<name> the file reads, as an
    attribute of a module imported from dp5links or in a from-import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {alias.asname or alias.name: alias.name
               for node in imports if node.module == "dp5links" for alias in node.names}
    found = {(modules[node.value.id], node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    return found | {(node.module.removeprefix("dp5links."), alias.name) for node in imports
                    if (node.module or "").startswith("dp5links.") for alias in node.names}


@pytest.mark.parametrize("module, name", sorted(
    package_lookups(PERFBENCH / "kernels.py") | package_lookups(PERFBENCH / "child.py")))
def test_every_package_name_the_benchmark_reads_resolves(module, name):
    assert hasattr(importlib.import_module(f"dp5links.{module}"), name)


def test_quadric_side_report_has_the_recorded_digest():
    workloads = load(PERFBENCH / "workloads.py")
    selection, digest = workloads.WORKLOADS["quadric-side"]
    report = run_checks(selection).to_json().encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == digest


def test_verify_all_digest_is_the_golden_digest():
    _, digest = load(PERFBENCH / "workloads.py").WORKLOADS["verify-all"]
    assert digest == load(Path(__file__).with_name("test_golden.py")).GOLDEN_SHA256
