"""Command-line interface: analyze maps, run single checks, list the catalog."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .catalog import catalog_descriptions
from .loader import MapSpecError, load_map_spec, set_setting
from .report import (CHECK_NAMES, EXIT_INPUT_ERROR, EXIT_OK, Analysis,
                     render_json, render_report, unknown_check)


# (flag, AnalysisSettings field, type, help) of each flag that sets a setting
_SETTING_FLAGS = (
    ("--samples", "points", int, "sample points (default 50)"),
    ("--seed", "seed", int, "sampling seed (default 42)"),
    ("--tol", "check_tol", float, "check tolerance (default 1e-8)"),
    ("--rank-tol", "rank_tol", float,
     "relative rank cutoff, below 1 (default 1e-8)"),
    ("--angle-tol", "angle_tol", float,
     "slant-angle tolerance in radians, below pi/4 (default 1e-6)"),
)


def _add_map_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--map", required=True,
                        help="catalog:<id> or path to a map-spec JSON file")
    for flag, _, kind, text in _SETTING_FLAGS:
        parser.add_argument(flag, type=kind, help=text)
    parser.add_argument("--out", help="write the JSON report to this file")
    parser.add_argument("--points", help="write each sample point's slant "
                        "angle range to this file")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call
    of ``main`` in the process (parsing leaves it unchanged)."""
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
    for flag, field, _, _ in _SETTING_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            set_setting(settings, field, value, flag)


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
        return _input_error(str(exc))

    if args.command == "check" and args.name not in CHECK_NAMES:
        return _input_error(str(unknown_check(args.name)))
    for flag, path in (("--out", args.out), ("--points", args.points)):
        try:  # opened, and not emptied, before any check runs
            if path:
                open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            return _input_error(f"{flag}: {exc}")
    if args.out and args.points and os.path.samefile(args.out, args.points):
        return _input_error("--points: the same file as --out")
    analysis = Analysis(loaded)
    report = analysis.report(CHECK_NAMES if args.command == "analyze"
                             else (args.name,))
    for flag, path, render in (  # each built only when asked for
            ("--points", args.points,
             lambda: render_json(analysis.point_records(), args.pretty)),
            ("--out", args.out, lambda: render_report(report, args.pretty))):
        try:
            if path:
                Path(path).write_text(render(), encoding="utf-8")
        except OSError as exc:
            return _input_error(f"{flag}: {exc}")
    if not args.out:
        sys.stdout.write(render_report(report, args.pretty))
    return report.exit_code


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
