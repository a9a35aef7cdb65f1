"""Command-line interface: analyze maps, run single checks, list the catalog."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .catalog import catalog_descriptions
from .loader import MapSpecError, load_map_spec, set_setting
from .report import (CHECK_NAMES, EXIT_INPUT_ERROR, EXIT_OK, Analysis, Report,
                     render_json, render_report)


def _add_map_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--map", required=True,
                        help="catalog:<id> or path to a map-spec JSON file")
    parser.add_argument("--samples", type=int, help="sample points (default 50)")
    parser.add_argument("--seed", type=int, help="sampling seed (default 42)")
    parser.add_argument("--tol", type=float, help="check tolerance (default 1e-8)")
    parser.add_argument("--rank-tol", type=float,
                        help="relative rank cutoff, below 1 (default 1e-8)")
    parser.add_argument("--angle-tol", type=float, help="slant-angle tolerance "
                        "in radians, below pi/4 (default 1e-6)")
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
    for flag, attr in (("--samples", "points"), ("--seed", "seed"),
                       ("--tol", "check_tol"), ("--rank-tol", "rank_tol"),
                       ("--angle-tol", "angle_tol")):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            set_setting(settings, attr, value, flag)


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
        return _no_check(args.name)
    for flag, path in (("--out", args.out), ("--points", args.points)):
        try:  # opened, and not emptied, before any check runs
            if path:
                open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            return _input_error(f"{flag}: {exc}")
    if args.out and args.points and os.path.samefile(args.out, args.points):
        return _input_error("--points: the same file as --out")
    analysis = Analysis(loaded)
    if args.command == "check":
        single = analysis.entry(args.name)
        # a slant_classification that ran has no entry: it is the slant block
        report = (Report(analysis.metadata, [single]) if single is not None
                  else Report(analysis.metadata, [], analysis.slant_block()))
    else:
        report = analysis.report()
    try:  # built only when asked for
        if args.points:
            Path(args.points).write_text(
                render_json(analysis.point_records(), args.pretty),
                encoding="utf-8")
    except OSError as exc:
        return _input_error(f"--points: {exc}")
    text = render_report(report, args.pretty)
    if not args.out:
        sys.stdout.write(text)
        return report.exit_code
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        return _input_error(f"--out: {exc}")
    return report.exit_code


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _no_check(name: str) -> int:
    return _input_error(f"no check {name!r} in the report; available: "
                        f"{', '.join(CHECK_NAMES)}")


if __name__ == "__main__":
    sys.exit(main())
