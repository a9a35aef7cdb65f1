"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload is a closed loop run by one caller: it repeats a fixed cycle of
operations, and the next operation starts when the previous one returns.
The seed fixes every input; the program receives only the generated inputs.

* ``catalog_default``: CLI traffic.  Every catalog map through
  ``slantmap analyze`` at the default 50 samples and 6 directions, then six
  ``slantmap check NAME`` calls ordered from shallow to deep dependency
  closures, each on a different map.  Ranks are at most 2 and dimensions at
  most 4; most frame builds come from the curve derivatives of ``slant``.
* ``rank4_files``: three rank-4 map-spec files kept in ``maps/``, loaded by
  path and analysed through the library at the sample count the files set.
  Targets are 6- and 8-dimensional, so the rank^2 pair loops and the wider
  matrices weigh more than in the catalog.
* ``pointwise_api``: the library's pointwise calls (``point_frame``,
  ``slant_angle``, ``q_operator``, ``tension_field``), one call group per
  seeded point, on a curved source and two curved targets.  It bypasses the
  slant curve derivatives, ``classify_slant`` and the report.

Outputs are checked against ``reference.json``: per-check statuses, the
slant classification and rank, and, where a closed form exists, the angle.
Residuals and report bytes are not compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import slantmap
import slantmap.cli

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
FAILING = ("fail", "error")


@dataclass
class Op:
    """One timed operation: ``call`` is timed, ``verify`` is not."""

    kind: str                       # analyze | check | call
    label: str                      # map (and check) the operation runs on
    points: int                     # sample points it processes
    call: Callable[[], object]
    verify: Callable[[object], Optional[str]]   # None when the output is right
    signature: Callable[[object], bytes]        # output identity, for tracing


def _op_seeds(seed: int, index: int, count: int) -> list:
    rng = np.random.default_rng([seed, index])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _compare_map(ref: dict, checks: dict, classification, rank,
                 angle) -> Optional[str]:
    if checks != ref["checks"]:
        wrong = {n: s for n, s in checks.items() if ref["checks"].get(n) != s}
        return f"check statuses differ from the reference: {wrong or checks}"
    if classification != ref["classification"]:
        return f"classification {classification}, expected {ref['classification']}"
    if rank != ref["rank"]:
        return f"rank {rank}, expected {ref['rank']}"
    if "angle" in ref and not abs(angle - ref["angle"]) <= REFERENCE["angle_tol"]:
        return f"mean angle {angle!r}, expected {ref['angle']!r}"
    return None


def _text_signature(output) -> bytes:
    return output[1].encode("utf-8")


# ---------------------------------------------------------------------------
# catalog_default

CATALOG = tuple(REFERENCE["catalog"])
# Shallow to deep dependency closures, each on a different catalog map.
CATALOG_CHECKS = (("kahler", "identity2"), ("riemannian_map", "anti_invariant"),
                  ("harmonic", "nonslant"), ("phwc", "invariant"),
                  ("omega_defect_identity", "slant_plane"),
                  ("pseudo_homothetic", "example4"))
CATALOG_SAMPLES = 50


def _cli(argv: list):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = slantmap.cli.main(argv)
    return code, buffer.getvalue()


def _verify_analyze(ref: dict):
    def verify(output) -> Optional[str]:
        code, text = output
        doc = json.loads(text)
        slant = doc.get("slant", {})
        problem = _compare_map(ref, {c["name"]: c["status"] for c in doc["checks"]},
                               slant.get("classification"), slant.get("rank"),
                               slant.get("mean_angle"))
        expected_code = 1 if any(s in FAILING for s in ref["checks"].values()) else 0
        if problem is None and code != expected_code:
            problem = f"exit code {code}, expected {expected_code}"
        return problem
    return verify


def _verify_check(name: str, expected: str):
    def verify(output) -> Optional[str]:
        code, text = output
        statuses = [(c["name"], c["status"]) for c in json.loads(text)["checks"]]
        if statuses != [(name, expected)]:
            return f"check {name}: got {statuses}, expected {expected}"
        expected_code = 1 if expected in FAILING else 0
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        return None
    return verify


class CatalogDefault:
    name = "catalog_default"
    trace_cycles = 1
    untraced_ops = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        for cid in CATALOG:
            slantmap.load_map_spec(f"catalog:{cid}")

    def cycle(self, index: int) -> list:
        seeds = iter(_op_seeds(self.seed, index, len(CATALOG) + len(CATALOG_CHECKS)))
        ops = []
        for cid in CATALOG:
            argv = ["analyze", "--map", f"catalog:{cid}", "--seed", str(next(seeds))]
            ops.append(Op("analyze", cid, CATALOG_SAMPLES,
                          lambda argv=argv: _cli(argv),
                          _verify_analyze(REFERENCE["catalog"][cid]),
                          _text_signature))
        for check, cid in CATALOG_CHECKS:
            argv = ["check", check, "--map", f"catalog:{cid}",
                    "--seed", str(next(seeds))]
            ops.append(Op("check", f"{cid}/{check}", CATALOG_SAMPLES,
                          lambda argv=argv: _cli(argv),
                          _verify_check(check, REFERENCE["catalog"][cid]["checks"][check]),
                          _text_signature))
        return ops


# ---------------------------------------------------------------------------
# rank4_files

RANK4_FILES = tuple(REFERENCE["rank4_files"])


def _verify_report(ref: dict):
    def verify(output) -> Optional[str]:
        report, _ = output
        slant = report.slant
        return _compare_map(ref, {c.name: c.status for c in report.checks},
                            slant.classification, slant.rank, slant.mean_angle)
    return verify


class Rank4Files:
    name = "rank4_files"
    trace_cycles = 1
    untraced_ops = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.loaded = {}

    def setup(self) -> None:
        self.loaded = {stem: slantmap.load_map_spec(str(HERE / "maps" / f"{stem}.json"))
                       for stem in RANK4_FILES}

    def cycle(self, index: int) -> list:
        ops = []
        for stem, seed in zip(RANK4_FILES, _op_seeds(self.seed, index, len(RANK4_FILES))):
            loaded = self.loaded[stem]
            settings = replace(loaded.settings, seed=seed)

            def call(loaded=loaded, settings=settings):
                report = slantmap.run_analysis(loaded, settings)
                return report, slantmap.render_report(report)

            ops.append(Op("analyze", stem, settings.points, call,
                          _verify_report(REFERENCE["rank4_files"][stem]),
                          _text_signature))
        return ops


# ---------------------------------------------------------------------------
# pointwise_api

POINTWISE = tuple(REFERENCE["pointwise_api"])
POINTS_PER_MAP = 2000


def _call_group(spec, p, coeff):
    frame = slantmap.point_frame(spec, p)
    X = frame.split.horizontal.columns @ coeff[:frame.rank]
    theta = slantmap.slant_angle(spec, p, X)
    q = slantmap.q_operator(spec, p)
    tension = slantmap.tension_field(spec, p)
    return frame.rank, theta, q, tension


def _verify_group(ref: dict, target_dim: int):
    cos2 = math.cos(ref["angle"]) ** 2

    def verify(output) -> Optional[str]:
        rank, theta, q, tension = output
        if rank != ref["rank"]:
            return f"rank {rank}, expected {ref['rank']}"
        if not abs(theta - ref["angle"]) <= REFERENCE["angle_tol"]:
            return f"slant angle {theta!r}, expected {ref['angle']!r}"
        if np.abs(q @ q + cos2 * np.eye(rank)).max() > REFERENCE["angle_tol"]:
            return "Q^2 is not -cos^2(angle) times the identity"
        if tension.shape != (target_dim,) or not np.isfinite(tension).all():
            return f"tension field {tension!r} is not a finite target vector"
        return None
    return verify


def _group_signature(output) -> bytes:
    rank, theta, q, tension = output
    return repr((rank, theta)).encode() + q.tobytes() + tension.tobytes()


class PointwiseApi:
    name = "pointwise_api"
    trace_cycles = 200
    untraced_ops = 600

    def __init__(self, seed: int):
        self.seed = seed
        self.maps = []

    def setup(self) -> None:
        seeds = iter(_op_seeds(self.seed, 0, 2 * len(POINTWISE)))
        self.maps = []
        for cid in POINTWISE:
            spec = slantmap.load_map_spec(f"catalog:{cid}").spec
            points = slantmap.sample_points(spec.box, POINTS_PER_MAP, next(seeds))
            coeffs = np.random.default_rng(next(seeds)).standard_normal(
                (POINTS_PER_MAP, spec.source.dim))
            self.maps.append((cid, spec, points, coeffs,
                              _verify_group(REFERENCE["pointwise_api"][cid],
                                            spec.target.dim)))

    def cycle(self, index: int) -> list:
        k = index % POINTS_PER_MAP
        return [Op("call", cid, 1,
                   lambda spec=spec, p=points[k], c=coeffs[k]: _call_group(spec, p, c),
                   verify, _group_signature)
                for cid, spec, points, coeffs, verify in self.maps]


WORKLOADS = {w.name: w for w in (CatalogDefault, Rank4Files, PointwiseApi)}
