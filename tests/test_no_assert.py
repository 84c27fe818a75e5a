"""Certificates must not depend on `assert`, which `python -O` strips."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dp5links

PACKAGE = Path(dp5links.__file__).parent
GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_optimized_run_emits_the_golden_report():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "dp5links.cli", "verify", "all", "--format", "json"],
        env=env, capture_output=True, timeout=300, check=False,
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == GOLDEN.read_bytes()
