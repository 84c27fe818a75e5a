"""Command line entry point: list the check catalog, run checks, emit reports."""

from __future__ import annotations

import argparse
import sys

from .report import CHECK_STAGES, STATEMENTS, UnknownCheckId, run_checks_parallel


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
                        help="print per-check wall times, the process that ran each "
                             "check and the stages it declares to standard error")
    return parser


def main(argv: list[str] | None = None) -> int:
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
        report = run_checks_parallel(selection)
    except UnknownCheckId as exc:
        print(f"unknown check id(s): {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if args.format == "json" else report.to_markdown()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if args.timings:
        for c in report.checks:
            stages = ", ".join(CHECK_STAGES[c.check_id]) or "-"
            print(f"{c.check_id}: {c.wall_time_ms:.1f} ms ({c.process}; stages: {stages})",
                  file=sys.stderr)
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
