"""Every demo runs to completion; the orbit demo prints its recorded transcript.

``tests/golden/demo_02_orbits_and_censuses.txt`` is the standard output of
``python demos/02_orbits_and_censuses.py``, which prints fixed-locus
characters and points, the two orbit censuses and an orbit-stabilizer count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dp5links

PACKAGE = Path(dp5links.__file__).parent
DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPTS = {"02_orbits_and_censuses.py": GOLDEN / "demo_02_orbits_and_censuses.txt"}


def test_the_five_demos_are_the_ones_run_here():
    assert [p.name for p in sorted(DEMOS.glob("*.py"))] == [
        "01_field_tour.py", "02_orbits_and_censuses.py", "03_twenty_seven_lines.py",
        "04_link_lattice.py", "05_normalizer.py",
    ]


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True,
                         text=True, timeout=120, check=False)
    assert out.returncode == 0, out.stderr
    if name in TRANSCRIPTS:
        assert out.stdout == TRANSCRIPTS[name].read_text(encoding="utf-8")
