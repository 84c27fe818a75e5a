"""The full report is byte-identical to the committed golden report.

``tests/golden/verify_all.json`` is the output of
``dp5links verify all --format json``.  Any change of certificate content,
ordering or formatting shows up here as a failure, even when two runs of the
changed code still agree with each other.  The markdown report is pinned by
its digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dp5links
from dp5links.cli import main
from dp5links.report import run_checks

GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"
GOLDEN_SHA256 = "bcd5004d72c79d6f3c8114e85db33f1843bb0fd6f254de83df6aacd3b10f5212"
# sha256 of ``dp5links verify all --format markdown``
MARKDOWN_SHA256 = "419ec64f5d53add7ec18ea0cd204873a7f51fbf89454fcb9d2f0a8e6c092257b"


def test_golden_file_is_the_recorded_report():
    data = GOLDEN.read_bytes()
    assert len(data) == 258_286
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256


def test_verify_all_equals_golden_report():
    assert run_checks().to_json().encode("utf-8") == GOLDEN.read_bytes()


def test_verify_all_markdown_has_the_recorded_digest(tmp_path):
    text = run_checks().to_markdown().encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == MARKDOWN_SHA256
    out = tmp_path / "report.md"
    assert main(["verify", "all", "--format", "markdown", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MARKDOWN_SHA256


@pytest.mark.parametrize("seed", ["0", "1"])
def test_the_report_bytes_do_not_depend_on_the_hash_seed(seed):
    # the value classes hash their fields, which include strings
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(dp5links.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "dp5links.cli", "verify", "all", "--format", "json"],
                         env=env, capture_output=True, timeout=300, check=False)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == GOLDEN.read_bytes()
