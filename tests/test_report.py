import ast
import errno
import json
import os
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import dp5links
from dp5links import census, cli, groups, picard
from dp5links.cli import main
from dp5links.cyclo import FieldElement
from dp5links.report import (
    CHECK_FUNCTIONS,
    CHECK_STAGES,
    STATEMENTS,
    CheckFailure,
    Context,
    UnknownCheckId,
    run_checks,
)

# the catalog in definition order
CHECK_IDS = [
    "clebsch-smooth", "clebsch-orbit-4", "clebsch-orbit-5", "clebsch-census-lt8",
    "lines-27", "skew-families", "quadric-census-lt8", "general-position-k1-k2",
    "ruling-minus2", "picard-reconstruct", "invariant-ranks", "contractions-two",
    "divisor-relations", "selfmap-degree", "dp5-orbit-descent", "thm-g40",
]
GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"


@pytest.fixture(scope="module")
def ctx():
    return Context()


def test_catalog_is_large_enough_and_well_formed():
    assert list(STATEMENTS) == CHECK_IDS
    assert list(CHECK_FUNCTIONS) == CHECK_IDS
    for cid in CHECK_IDS:
        assert cid == cid.lower()
        assert " " not in cid
        assert STATEMENTS[cid].strip()
        assert callable(CHECK_FUNCTIONS[cid])


def test_each_check_id_is_written_once_in_the_package():
    package = Path(dp5links.__file__).parent
    literals = Counter(
        node.value
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {cid: literals[cid] for cid in CHECK_IDS} == {cid: 1 for cid in CHECK_IDS}


def test_run_checks_subset_and_unknown_id(ctx):
    report = run_checks(["clebsch-smooth", "clebsch-orbit-4"], context=ctx)
    # results are ordered by check id
    assert [c.check_id for c in report.checks] == ["clebsch-orbit-4", "clebsch-smooth"]
    assert report.overall == "pass"
    with pytest.raises(UnknownCheckId):
        run_checks(["nope"], context=ctx)


def test_report_json_schema(ctx):
    report = run_checks(["clebsch-smooth"], context=ctx)
    data = json.loads(report.to_json())
    assert set(data) == {"version", "schema_version", "conventions", "checks", "overall"}
    assert data["overall"] == "pass"
    check = data["checks"][0]
    assert set(check) == {"id", "statement", "status", "certificate"}
    assert "wall_time" not in json.dumps(data)


def test_failures_are_reported_not_raised(ctx, monkeypatch):
    def broken(_):
        raise CheckFailure("synthetic discrepancy")

    monkeypatch.setitem(CHECK_FUNCTIONS, "clebsch-smooth", broken)
    report = run_checks(["clebsch-smooth"], context=ctx)
    assert report.overall == "fail"
    assert report.checks[0].status == "fail"
    assert "synthetic discrepancy" in report.checks[0].certificate["failure"]


def test_errors_are_reported_not_raised(ctx, monkeypatch):
    def exploding(_):
        raise RuntimeError("boom")

    monkeypatch.setitem(CHECK_FUNCTIONS, "clebsch-smooth", exploding)
    report = run_checks(["clebsch-smooth"], context=ctx)
    assert report.checks[0].status == "error"
    assert report.overall == "fail"


def _clear_module_caches() -> None:
    # keyed by value, so a report built earlier in this process would fill them
    for cached in (groups.subgroups_of_order, census._fixed_point_orbits, picard.contraction,
                   picard._ruling_data):
        cached.cache_clear()


def _cold_report_counting(monkeypatch, module, name: str) -> list:
    """Run a full report with empty module-level caches, recording the
    arguments of every call to ``module.name``."""
    _clear_module_caches()
    real = getattr(module, name)
    calls = []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    run_checks()
    return calls


def test_a_full_report_pins_the_subgroup_closures(monkeypatch):
    # the 3 standard groups only: subgroup classes are closed on the Cayley
    # table of the order-20 group, by the index closure
    assert len(_cold_report_counting(monkeypatch, groups, "subgroup_closure")) == 3


def test_a_full_report_pins_the_index_closures(monkeypatch):
    # 20 for the cyclic subgroups of the order-20 group, closed once for all
    # orders, and 92 pairs for its subgroup classes at orders 20, 10, 5 and
    # 4; a pair inside a subgroup already found is not closed, and
    # conjugates take no closure
    assert len(_cold_report_counting(monkeypatch, groups, "index_closure")) == 112


def test_a_full_report_pins_the_permutation_products(monkeypatch):
    # 64 close the standard groups (4 + 10 * 2 + 20 * 2); the order-20 group's
    # t c t^-1 = c^u is read off twice (3 each), for the characters and for
    # the intertwiners, 24 list the cosets t^a c^b of the characters and 3 the
    # powers of t^-1 the intertwiners need; the subgroup enumeration reads the
    # Cayley table instead, and no span intersection is left in the package
    calls = _cold_report_counting(monkeypatch, groups.Permutation, "__mul__")
    assert len(calls) == 97
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dp5links"]
    assert len(modules) > 1 and not [m for m in modules if hasattr(m, "intersect_spans")]


def test_a_full_report_pins_the_field_products_and_inverses(monkeypatch):
    # rref takes one inverse per pivot and multiplies only right of the pivot,
    # by the pivot row's nonzero entries; the normalizer lists its classes as
    # two cosets and stabilizers are found without canonicalising images;
    # permutation eigenspaces, hyperplane coordinates, the 27 lines and the
    # intertwiners are closed forms.  15,096 products and 1,009 inverses
    # before residual_line stopped re-testing its certified inputs on the
    # surface, the Picard action matrices were written from the line
    # permutation instead of by a 7x14 basis inversion over the field, and
    # the quadric's hyperplane gram was written entrywise instead of as B^T G B.
    # 12,972 and 981 before the quadric's four rulings and their families were
    # computed once per quadric and each generator's ruling swap read off its
    # permutation of the length-4 orbit, not from 8 image lines and their meets
    counts = Counter()

    def counted(name, real):
        return lambda *args: counts.update([name]) or real(*args)

    for attr, name in (("__mul__", "mul"), ("__rmul__", "mul"), ("inverse", "inverse")):
        monkeypatch.setattr(FieldElement, attr, counted(name, getattr(FieldElement, attr)))
    _clear_module_caches()
    run_checks()
    assert counts == {"mul": 12283, "inverse": 911}


def test_a_full_report_pins_the_point_images(monkeypatch):
    # the 9 orbits closed under the 2 generators of the order-20 group: 8 of
    # the censuses' fixed points and the length-4 orbit again, 80 images in
    # all; 32 more in checks.  120 before selfmap-degree read each generator's
    # ruling swap off its permutation of the 4 orbit points (4 images) instead
    # of moving both points of each of the 4 rulings (8 images)
    assert len(_cold_report_counting(monkeypatch, groups.Permutation, "apply_point")) == 112


def test_a_full_report_contracts_each_family_once(monkeypatch):
    # invariant-ranks, contractions-two and divisor-relations ask for the two
    # contractions 5 times; picard.contraction computes each once
    calls = _cold_report_counting(monkeypatch, picard, "contract")
    assert sorted(tuple(family) for _, family in calls) == [
        ("E1", "E2"), ("L1", "L2", "L3", "L4", "L5")]


def test_a_full_report_takes_each_fixed_locus_once(monkeypatch):
    calls = _cold_report_counting(monkeypatch, census, "fixed_locus")
    g20 = Context().g20
    classes = [cls for q in (20, 10, 5, 4) for cls in groups.subgroups_of_order(g20, q)]
    assert len(classes) == 4
    assert [h for (h,) in calls] == [cls[0] for cls in classes]


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # importing the two costs about 11 ms of a cold start, so the value classes
    # are written out by hand rather than generated
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(dp5links.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import dp5links.cli\n"
            "from dp5links import report\n"
            "report.Context()\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_cli_rejects_the_removed_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_markdown_contains_statements(ctx):
    report = run_checks(["clebsch-smooth"], context=ctx)
    text = report.to_markdown()
    assert "# Verification report" in text
    assert "clebsch-smooth" in text
    assert "## Conventions" in text
    assert "Overall: PASS" in text


def test_cli_list_enumerates_exactly_the_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [f"{cid}: {STATEMENTS[cid]}" for cid in CHECK_IDS]
    assert main(["verify", "no-such-check"]) == 2


def test_cli_rejects_all_mixed_with_check_ids(capsys):
    assert main(["verify", "all", "lines-27"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'all' cannot be combined" in captured.err
    assert main(["verify", "lines-27", "all"]) == 2


def test_cli_verify_writes_output(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "clebsch-smooth", "--format", "json", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["overall"] == "pass"


def test_cli_rejects_unwritable_output(tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    code = main(["verify", "clebsch-smooth", "--format", "json", "--output", str(target)])
    assert code == 2


class FullDisk:
    """A text file that takes its first kilobyte, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh, self.room = fh, 1024

    def write(self, text: str) -> int:
        self.fh.write(text[:self.room])
        if len(text) > self.room:
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(text)
        return len(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def test_a_failed_write_of_the_output_leaves_no_file(monkeypatch, tmp_path, capsys):
    out = tmp_path / "report.json"
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(open(*args, **kwargs)),
                        raising=False)
    assert main(["verify", "clebsch-smooth", "--format", "json", "--output", str(out)]) == 2
    assert f"cannot write {out}: " in capsys.readouterr().err
    assert not out.exists()


def test_a_failed_write_through_a_link_keeps_the_link(monkeypatch, tmp_path):
    # only a regular file is removed: never a link such as /dev/stdout, or a device
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    link.symlink_to(target)
    monkeypatch.setitem(CHECK_FUNCTIONS, "clebsch-smooth", lambda ctx: {"x": 0.5})
    with pytest.raises(TypeError):
        main(["verify", "clebsch-smooth", "--format", "json", "--output", str(link)])
    assert link.is_symlink() and target.exists()


def test_a_certificate_that_cannot_be_written_leaves_no_file(monkeypatch, tmp_path):
    out = tmp_path / "report.json"
    monkeypatch.setitem(CHECK_FUNCTIONS, "clebsch-smooth", lambda ctx: {"x": 0.5})
    with pytest.raises(TypeError, match="float"):
        main(["verify", "clebsch-smooth", "--format", "json", "--output", str(out)])
    assert not out.exists()


def test_no_module_level_cache_grows_after_the_first_report():
    caches = {f"{name}.{attr}": value
              for name, module in list(sys.modules.items()) if name.split(".")[0] == "dp5links"
              for attr, value in vars(module).items()
              if hasattr(value, "cache_info") and value.__module__ == name}
    assert {"dp5links.picard.contraction", "dp5links.picard._ruling_data",
            "dp5links.groups.subgroups_of_order",
            "dp5links.census._fixed_point_orbits"} <= set(caches)
    sizes = []
    for _ in range(3):
        run_checks()
        sizes.append({name: cached.cache_info().currsize for name, cached in caches.items()})
    assert sizes[2] == sizes[0]


def test_each_check_builds_exactly_the_stages_it_declares():
    stages = {name for name, attr in vars(Context).items() if isinstance(attr, cached_property)}
    for cid in CHECK_IDS:
        fresh = Context()
        CHECK_FUNCTIONS[cid](fresh)
        assert set(CHECK_STAGES[cid]) == stages & set(vars(fresh)), cid


def test_run_checks_fills_a_passed_context():
    ctx = Context()
    run_checks(["lines-27", "thm-g40"], context=ctx)
    assert {"cfg", "quadric_census", "normalizer"} <= set(vars(ctx))


def test_an_interrupt_in_a_check_propagates_out_of_the_cli(monkeypatch):
    def interrupted(_):
        raise KeyboardInterrupt

    monkeypatch.setitem(CHECK_FUNCTIONS, "lines-27", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "all"])


def test_the_cli_never_forks(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("verify forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--format", "json", "--output", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_cli_writes_the_report_to_stdout_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(dp5links.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "dp5links.cli", "verify", "all", "--format",
                          "json", "--timings"], env=env, capture_output=True, timeout=120,
                         check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout == GOLDEN.read_bytes()
    *rows, timeline = out.stderr.decode().splitlines()
    assert [row.split(":", 1)[0] for row in rows] == sorted(CHECK_IDS)
    assert [row.split(" (", 1)[1] for row in rows] == [
        f"stages: {', '.join(CHECK_STAGES[cid]) or '-'})" for cid in sorted(CHECK_IDS)]
    events = [event.rsplit(" at ", 1)[0] for event in timeline.split(": ", 1)[1].split(", ")]
    assert events == ["checks done", "report written"]
