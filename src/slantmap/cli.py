"""Command-line interface: analyze maps, run single checks, list the catalog."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import catalog_descriptions
from .loader import MapSpecError, load_map_spec, set_setting
from .report import (CHECK_NAMES, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR,
                     EXIT_OK, Analysis, Report, render_report, run_analysis)


def _add_map_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--map", required=True,
                        help="catalog:<id> or path to a map-spec JSON file")
    parser.add_argument("--samples", type=int, help="sample points (default 50)")
    parser.add_argument("--dirs", type=int,
                        help="tangent directions per point (default 6)")
    parser.add_argument("--seed", type=int, help="sampling seed (default 42)")
    parser.add_argument("--tol", type=float, help="check tolerance (default 1e-8)")
    parser.add_argument("--rank-tol", type=float,
                        help="relative rank cutoff (default 1e-8)")
    parser.add_argument("--angle-tol", type=float,
                        help="slant-angle tolerance in radians (default 1e-6)")
    parser.add_argument("--out", help="write the JSON report to this file")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slantmap",
        description="Numerical analysis of Riemannian maps into almost "
                    "Hermitian coordinate charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run every applicable check")
    _add_map_options(analyze)

    single = sub.add_parser(
        "check", help="run one named check and only what it depends on")
    single.add_argument("name", help="check name, e.g. riemannian_map")
    _add_map_options(single)

    sub.add_parser("catalog", help="list built-in maps")
    return parser


def _apply_overrides(settings, args) -> None:
    for flag, attr in (("--samples", "points"), ("--dirs", "dirs"),
                       ("--seed", "seed"), ("--tol", "check_tol"),
                       ("--rank-tol", "rank_tol"), ("--angle-tol", "angle_tol")):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            set_setting(settings, attr, value, flag)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "catalog":
        for name, description in catalog_descriptions().items():
            print(f"{name:15s} {description}")
        return EXIT_OK

    try:
        loaded = load_map_spec(args.map)
        _apply_overrides(loaded.settings, args)
    except MapSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.command == "check":
        analysis = Analysis(loaded)
        single = analysis.entry(args.name) if args.name in CHECK_NAMES else None
        if single is None:
            print(f"error: no check {args.name!r} in the report; available: "
                  f"{', '.join(CHECK_NAMES)}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        _emit(render_report(Report(analysis.metadata, [single]), args.pretty),
              args.out)
        return EXIT_CHECK_FAILED if single.status in ("fail", "error") else EXIT_OK

    report = run_analysis(loaded)
    _emit(render_report(report, args.pretty), args.out)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
