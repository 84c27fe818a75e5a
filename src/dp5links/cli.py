"""Command line entry point: list the check catalog, run checks, emit reports."""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time

from .cyclo import table_sizes
from .report import STATEMENTS, UnknownCheckId, run_checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp5links",
        description="exact verification of the birational link calculus of the "
                    "quintic del Pezzo surface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="enumerate the check catalog")
    verify = sub.add_parser("verify", help="run checks and emit a report")
    verify.add_argument("ids", nargs="+",
                        help="check ids, or 'all' for the whole catalog")
    verify.add_argument("--format", choices=("json", "markdown"), default="markdown")
    verify.add_argument("--output", default=None,
                        help="output path (default: standard output)")
    verify.add_argument("--timings", action="store_true",
                        help="print per-check wall times and the stages each check "
                             "built first, then when the checks were done and the "
                             "report written, then the field's distinct values and "
                             "computed operations, to standard error")
    return parser


def _write_to(path: str | None, write) -> None:
    """Stream the report through write to the file at path, or to standard
    output.  A report file is complete or absent: if writing fails, the
    partial file is removed and the error raised."""
    if not path:
        write(sys.stdout)
        return
    fh = open(path, "w", encoding="utf-8")  # failing here, it made no file
    try:
        with fh:
            write(fh)
    except BaseException:
        if stat.S_ISREG(os.lstat(path).st_mode):  # never a device, pipe or link
            os.remove(path)
        raise


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for cid, statement in STATEMENTS.items():
            print(f"{cid}: {statement}")
        return 0
    if "all" in args.ids and len(args.ids) > 1:
        print("'all' cannot be combined with other check ids", file=sys.stderr)
        return 2
    selection = None if args.ids == ["all"] else args.ids
    try:
        report = run_checks(selection)
    except UnknownCheckId as exc:
        print(f"unknown check id(s): {exc}", file=sys.stderr)
        return 2
    checks_done = time.perf_counter()
    write = report.write_json if args.format == "json" else report.write_markdown
    try:
        _write_to(args.output, write)
    except OSError as exc:
        print(f"cannot write {args.output or 'standard output'}: {exc}", file=sys.stderr)
        return 2
    if args.timings:
        written = time.perf_counter()
        for c in report.checks:
            built = ", ".join(c.built) or "-"
            print(f"{c.check_id}: {c.wall_time_ms:.1f} ms (built: {built})", file=sys.stderr)
        print(f"timeline: checks done at {(checks_done - start) * 1000:.1f} ms, "
              f"report written at {(written - start) * 1000:.1f} ms", file=sys.stderr)
        # read from the field's tables, so no operation keeps a counter; after
        # an emptying at cyclo.TABLE_CAP they count from that emptying
        sizes = table_sizes()
        print(f"field: {sizes['values']} distinct values; {sizes['products']} products, "
              f"{sizes['sums']} sums and {sizes['inverses']} inverses computed",
              file=sys.stderr)
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
