import ast
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import dp5links
from dp5links import census, groups, report
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
    run_checks_parallel,
    stage_groups,
    worker_checks,
)

# the catalog in definition order
CHECK_IDS = [
    "clebsch-smooth", "clebsch-orbit-4", "clebsch-orbit-5", "clebsch-census-lt8",
    "lines-27", "skew-families", "quadric-census-lt8", "general-position-k1-k2",
    "ruling-minus2", "picard-reconstruct", "invariant-ranks", "contractions-two",
    "divisor-relations", "selfmap-degree", "dp5-orbit-descent", "thm-g40",
]
# the quadric's stage group, which a forked worker runs in `verify all`
WORKER_CHECKS = {"quadric-census-lt8", "general-position-k1-k2", "selfmap-degree", "thm-g40"}
# a small selection that forks: the 27 lines beside the quadric's census
SMALL_SPLIT = ["lines-27", "quadric-census-lt8"]
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


def _cold_report_counting(monkeypatch, module, name: str) -> list:
    """Run a full report with empty group-side caches, recording the
    arguments of every call to ``module.name``."""
    groups.subgroups_of_order.cache_clear()
    census._fixed_point_orbits.cache_clear()
    real = getattr(module, name)
    calls = []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    run_checks()
    return calls


def test_a_full_report_pins_the_subgroup_closures(monkeypatch):
    # 3 for the standard groups, 20 for the cyclic subgroups of the order-20
    # group, closed once for all orders, and 92 pairs for its subgroup classes
    # at orders 20, 10, 5 and 4; a pair inside a subgroup already found is not
    # closed, and conjugates take no closure
    assert len(_cold_report_counting(monkeypatch, groups, "subgroup_closure")) == 115


def test_a_full_report_pins_the_field_products_and_inverses(monkeypatch):
    # rref takes one inverse per pivot and multiplies only right of the pivot,
    # by the pivot row's nonzero entries
    counts = Counter()

    def counted(name, real):
        return lambda *args: counts.update([name]) or real(*args)

    for attr, name in (("__mul__", "mul"), ("__rmul__", "mul"), ("inverse", "inverse")):
        monkeypatch.setattr(FieldElement, attr, counted(name, getattr(FieldElement, attr)))
    groups.subgroups_of_order.cache_clear()
    census._fixed_point_orbits.cache_clear()
    run_checks()
    assert counts == {"mul": 22451, "inverse": 1500}


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


def test_each_check_builds_exactly_the_stages_it_declares():
    stages = {name for name, attr in vars(Context).items() if isinstance(attr, cached_property)}
    for cid in CHECK_IDS:
        fresh = Context()
        CHECK_FUNCTIONS[cid](fresh)
        assert set(CHECK_STAGES[cid]) == stages & set(vars(fresh)), cid


def test_stage_groups_split_the_catalog_into_the_two_surfaces_and_two_loners():
    groups = stage_groups(CHECK_IDS)
    assert sorted(cid for group in groups for cid in group) == sorted(CHECK_IDS)
    assert sorted(map(len, groups)) == [1, 1, 4, 10]
    # the census check joins the cfg group only through dp5-orbit-descent
    assert len(stage_groups(["clebsch-census-lt8", "lines-27"])) == 2
    assert len(stage_groups(["clebsch-census-lt8", "lines-27", "dp5-orbit-descent"])) == 1


def test_the_worker_takes_the_staged_groups_beside_the_27_lines():
    assert worker_checks(CHECK_IDS) == WORKER_CHECKS
    assert worker_checks(SMALL_SPLIT) == {"quadric-census-lt8"}
    assert worker_checks(["lines-27", "clebsch-orbit-4", "thm-g40"]) == {"clebsch-orbit-4",
                                                                       "thm-g40"}
    # without the 27 lines each process would build the same group-side tables
    assert worker_checks(["clebsch-census-lt8", "quadric-census-lt8"]) == set()
    quadric_side = [cid for cid in CHECK_IDS if not {"cfg", "pic", "families"}
                    & set(CHECK_STAGES[cid])]
    assert worker_checks(quadric_side) == set()
    # stage-free checks are too cheap for a process of their own
    assert worker_checks(["lines-27", "clebsch-smooth", "ruling-minus2"]) == set()
    assert worker_checks(["picard-reconstruct", "divisor-relations"]) == set()


@pytest.mark.parametrize("files, cpus", [
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu.max": "200000 100000\n"}, 2.0),
    ({"cpu.max": "150000 100000\n"}, 1.5),
    ({"cfs_quota_us": "-1\n", "cfs_period_us": "100000\n"}, None),
    ({"cfs_quota_us": "100000\n", "cfs_period_us": "100000\n"}, 1.0),
    ({}, None),
])
def test_the_cgroup_cpu_quota_is_read_from_either_cgroup_version(tmp_path, monkeypatch,
                                                                 files, cpus):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(report, "_CPU_QUOTA_FILES", (
        (str(tmp_path / "cpu.max"),),
        (str(tmp_path / "cfs_quota_us"), str(tmp_path / "cfs_period_us")),
    ))
    assert report._cpu_quota() == cpus


@pytest.fixture
def two_cpus(monkeypatch):
    """Make run_checks_parallel see two usable CPUs, so that it forks on any host."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(report, "_CPU_QUOTA_FILES", ())


@pytest.fixture(scope="module")
def sequential_report():
    return run_checks()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _processes(rep) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for c in rep.checks:
        out.setdefault(c.process, set()).add(c.check_id)
    return out


def test_a_forked_report_equals_the_sequential_one_and_the_golden(two_cpus,
                                                                 sequential_report):
    forked = run_checks_parallel()
    _assert_no_child_left()
    assert _processes(forked)["worker"] == WORKER_CHECKS
    assert set(_processes(sequential_report)) == {"main"}
    assert forked.to_json() == sequential_report.to_json()
    assert forked.to_json().encode("utf-8") == GOLDEN.read_bytes()
    assert forked.to_markdown() == sequential_report.to_markdown()
    # repr tells a tuple from a list, a bool from an int and an int from a float
    assert ([(c.check_id, c.status, repr(c.certificate)) for c in forked.checks]
            == [(c.check_id, c.status, repr(c.certificate)) for c in sequential_report.checks])


def test_run_checks_never_forks_and_fills_a_passed_context(two_cpus):
    ctx = Context()
    assert set(_processes(run_checks(["lines-27", "thm-g40"], context=ctx))) == {"main"}
    assert {"cfg", "quadric_census", "normalizer"} <= set(vars(ctx))
    assert set(_processes(run_checks(SMALL_SPLIT))) == {"main"}


def test_no_fork_on_one_cpu_under_a_one_cpu_quota_or_beside_another_thread(two_cpus,
                                                                           monkeypatch,
                                                                           tmp_path):
    assert set(_processes(run_checks_parallel(SMALL_SPLIT))) == {"main", "worker"}
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        beside_a_thread = run_checks_parallel(SMALL_SPLIT)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert set(_processes(beside_a_thread)) == {"main"}
    (tmp_path / "cpu.max").write_text("100000 100000\n")
    monkeypatch.setattr(report, "_CPU_QUOTA_FILES", ((str(tmp_path / "cpu.max"),),))
    assert set(_processes(run_checks_parallel(SMALL_SPLIT))) == {"main"}
    monkeypatch.setattr(report, "_CPU_QUOTA_FILES", ())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert set(_processes(run_checks_parallel(SMALL_SPLIT))) == {"main"}
    _assert_no_child_left()


def test_a_worker_that_dies_is_replaced_by_a_run_in_the_main_process(two_cpus, monkeypatch):
    main_pid = os.getpid()
    real = CHECK_FUNCTIONS["thm-g40"]

    def dies_in_the_worker(ctx):
        if os.getpid() != main_pid:
            os._exit(3)
        return real(ctx)

    monkeypatch.setitem(CHECK_FUNCTIONS, "thm-g40", dies_in_the_worker)
    rep = run_checks_parallel()
    _assert_no_child_left()
    assert set(_processes(rep)) == {"main"}
    assert rep.to_json().encode("utf-8") == GOLDEN.read_bytes()


def test_a_worker_that_hangs_is_killed_and_replaced(two_cpus, monkeypatch):
    main_pid = os.getpid()
    real = CHECK_FUNCTIONS["thm-g40"]

    def hangs_in_the_worker(ctx):
        if os.getpid() != main_pid:
            time.sleep(120)
        return real(ctx)

    monkeypatch.setitem(CHECK_FUNCTIONS, "thm-g40", hangs_in_the_worker)
    monkeypatch.setattr(report, "_WORKER_WAIT_S", 0.5)
    start = time.monotonic()
    rep = run_checks_parallel()
    assert time.monotonic() - start < 60  # killed, not waited for
    _assert_no_child_left()
    assert set(_processes(rep)) == {"main"}
    assert rep.to_json().encode("utf-8") == GOLDEN.read_bytes()


def test_a_failed_fork_runs_every_check_in_the_main_process(two_cpus, monkeypatch):
    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    rep = run_checks_parallel(SMALL_SPLIT)
    assert [(c.check_id, c.status, c.process) for c in rep.checks] == [
        ("lines-27", "pass", "main"), ("quadric-census-lt8", "pass", "main")]


def test_an_error_in_the_worker_is_reported_as_in_a_sequential_run(two_cpus, monkeypatch):
    def exploding(_):
        raise RuntimeError("boom")

    monkeypatch.setitem(CHECK_FUNCTIONS, "quadric-census-lt8", exploding)
    forked = run_checks_parallel(SMALL_SPLIT)
    _assert_no_child_left()
    sequential = run_checks(SMALL_SPLIT)
    by_id = {c.check_id: c for c in forked.checks}
    assert by_id["quadric-census-lt8"].process == "worker"
    assert by_id["quadric-census-lt8"].certificate == {"error": "RuntimeError: boom"}
    assert forked.to_json() == sequential.to_json()


def test_an_interrupt_in_the_main_process_kills_the_worker(two_cpus, monkeypatch):
    main_pid = os.getpid()
    real = CHECK_FUNCTIONS["thm-g40"]

    def stalls_in_the_worker(ctx):
        if os.getpid() != main_pid:
            time.sleep(60)
        return real(ctx)

    def interrupted(_):
        raise KeyboardInterrupt

    monkeypatch.setitem(CHECK_FUNCTIONS, "thm-g40", stalls_in_the_worker)
    monkeypatch.setitem(CHECK_FUNCTIONS, "lines-27", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "all"])
    assert time.monotonic() - start < 30  # killed, not waited for
    _assert_no_child_left()


def test_cli_writes_the_report_to_stdout_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(dp5links.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "dp5links.cli", "verify", "all", "--format",
                          "json", "--timings"], env=env, capture_output=True, timeout=120,
                         check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout == GOLDEN.read_bytes()
    processes = {line.rsplit("(", 1)[1].split(";")[0] for line in out.stderr.decode().splitlines()}
    assert processes == ({"main", "worker"} if report._can_fork() else {"main"})
