"""Analysis orchestration and deterministic JSON report emission.

Checks appear in dependency order (Hermitian target, parallel structure,
Riemannian property, slant classification, then the structural identities);
a check whose precondition fails is reported as skipped, never as failed.
An entry is computed on first request, with only what it depends on, from one
shared ``Sample``.  Reports are byte-identical for a fixed input and seed:
floats are written with 17 significant digits and containers keep insertion
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .charts import ChartError, check_almost_hermitian, check_kahler
from .loader import AnalysisSettings, LoadedMap
from .maps import Sample, check_sff_range_perp, is_riemannian_map
from .result import CheckResult
from .slant import (NOT_RIEMANNIAN, SlantReport, check_adapted_frame,
                    check_harmonic, check_harmonic_minimal_equivalence,
                    check_lambda_mu_consistency, check_minimal_fibers,
                    check_omega_defect_identity, check_omega_parallel,
                    check_phi_parallel, check_phi_squared_scaling,
                    check_phwc, check_pseudo_homothetic,
                    check_q_squared_scaling, check_sff_q_scaling,
                    check_totally_geodesic, classify_slant)

REPORT_SCHEMA = "slantmap-report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

TARGET_CHECKS = ("almost_hermitian", "kahler")
RIEMANNIAN_CHECKS = ("sff_range_perp", "harmonic", "minimal_fibers",
                     "totally_geodesic")
SLANT_CHECKS = ("phi_squared_scaling", "q_squared_scaling",
                "lambda_mu_consistency", "adapted_frame", "omega_parallel",
                "phi_parallel", "omega_defect_identity", "sff_q_scaling",
                "harmonic_minimal_equivalence", "phwc", "pseudo_homothetic")
# Report order.  slant_classification has an entry only when the
# classification could not run; its outcome is otherwise the slant block.
CHECK_NAMES = (TARGET_CHECKS + ("riemannian_map",) + RIEMANNIAN_CHECKS
               + ("slant_classification",) + SLANT_CHECKS)


@dataclass
class Report:
    metadata: dict
    checks: List[CheckResult]
    slant: Optional[SlantReport] = None

    @property
    def exit_code(self) -> int:
        if any(c.status in ("fail", "error") for c in self.checks):
            return EXIT_CHECK_FAILED
        return EXIT_OK

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skipped": 0, "error": 0}
        for c in self.checks:
            counts[c.status] += 1
        out = {
            "schema": REPORT_SCHEMA,
            "metadata": self.metadata,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.slant is not None:
            out["slant"] = self.slant.to_dict()
        out["summary"] = counts
        return out


def sample_points(box, count: int, seed: int) -> list:
    """Uniform points in the box; the fixed draw order makes runs repeatable."""
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    return [lows + rng.random(len(box)) * (highs - lows) for _ in range(count)]


class Analysis:
    """One run over a map: the shared Sample of its seeded points and the
    report entries, each computed once, on first request."""

    def __init__(self, loaded: LoadedMap,
                 settings: Optional[AnalysisSettings] = None):
        self.spec = spec = loaded.spec
        self.settings = settings = settings or loaded.settings
        self.sample = Sample(spec, sample_points(spec.box, settings.points,
                                                 settings.seed),
                             settings.rank_tol)
        self.metadata = {
            "map": loaded.origin,
            "name": spec.name,
            "source_dim": spec.source.dim,
            "target_dim": spec.target.dim,
            "samples": settings.points,
            "dirs": settings.dirs,
            "seed": settings.seed,
            "tolerances": {"rank": settings.rank_tol, "check": settings.check_tol,
                           "angle": settings.angle_tol},
        }
        if loaded.digest:
            self.metadata["sha256"] = loaded.digest
        self._entries: dict = {}

    def entry(self, name: str) -> Optional[CheckResult]:
        """The report entry of a check in CHECK_NAMES (None for a
        slant_classification that ran); a check that raises gets an error."""
        if name not in self._entries:
            try:
                self._entries[name] = self._compute(name)
            except ChartError as exc:
                self._entries[name] = CheckResult.error(name, str(exc))
            except Exception as exc:
                self._entries[name] = CheckResult.error(
                    name, f"{type(exc).__name__}: {exc}")
        return self._entries[name]

    @cached_property
    def classification(self):
        """(SlantReport, None) when the classification ran, else (None, the
        slant_classification entry saying why not)."""
        s = self.settings
        if self.spec.target.complex_structure is None:
            return None, CheckResult.skipped("slant_classification",
                                             "target has no complex structure")
        try:
            return classify_slant(
                self.sample, s.dirs, s.angle_tol, s.check_tol, s.seed,
                riemannian=self.entry("riemannian_map")), None
        except Exception as exc:
            return None, CheckResult.error("slant_classification",
                                           f"{type(exc).__name__}: {exc}")

    def _compute(self, name: str) -> Optional[CheckResult]:
        spec, sample, s = self.spec, self.sample, self.settings
        tol = s.check_tol
        if name in TARGET_CHECKS:
            if spec.target.complex_structure is None:
                return CheckResult.skipped(name, "target has no complex structure")
            images = sample.images  # if F fails here, both entries are that error
            if name == "almost_hermitian":
                return check_almost_hermitian(spec.target, images, tol)
            if not self.entry("almost_hermitian").passed:
                return CheckResult.skipped(name, "target is not almost Hermitian")
            return check_kahler(spec.target, images, dirs=4, tol=tol, seed=s.seed)
        sample_checks = {"riemannian_map": is_riemannian_map,
                         "sff_range_perp": check_sff_range_perp,
                         "harmonic": check_harmonic,
                         "minimal_fibers": check_minimal_fibers,
                         "totally_geodesic": check_totally_geodesic}
        if name in sample_checks:
            if name != "riemannian_map" and not self.entry("riemannian_map").passed:
                return CheckResult.skipped(name, "map is not Riemannian")
            return sample_checks[name](sample, tol)
        report, unclassified = self.classification
        if name == "slant_classification":
            return unclassified
        if unclassified is not None:
            return CheckResult.skipped(
                name, unclassified.reason if unclassified.status == "skipped"
                else "slant classification failed")
        if report.classification == NOT_RIEMANNIAN:
            return CheckResult.skipped(name, "map is not Riemannian")
        checks = {
            "phi_squared_scaling": lambda: check_phi_squared_scaling(report, tol),
            "q_squared_scaling": lambda: check_q_squared_scaling(report, tol),
            "lambda_mu_consistency": lambda: check_lambda_mu_consistency(report),
            "adapted_frame": lambda: check_adapted_frame(sample, report),
            "omega_parallel": lambda: check_omega_parallel(report, tol),
            "phi_parallel": lambda: check_phi_parallel(report, tol),
            "omega_defect_identity": lambda: check_omega_defect_identity(sample),
            "sff_q_scaling": lambda: check_sff_q_scaling(sample, report, tol),
            "harmonic_minimal_equivalence": lambda: (
                check_harmonic_minimal_equivalence(
                    sample, report, tol, harmonic=self.entry("harmonic"),
                    fibers=self.entry("minimal_fibers"))),
            "phwc": lambda: check_phwc(sample, report, tol),
            "pseudo_homothetic": lambda: check_pseudo_homothetic(sample, report, tol),
        }
        return checks[name]()


def run_analysis(loaded: LoadedMap,
                 settings: Optional[AnalysisSettings] = None) -> Report:
    """Run every applicable check on the map and assemble the report."""
    analysis = Analysis(loaded, settings)
    entries = [analysis.entry(name) for name in CHECK_NAMES]
    return Report(analysis.metadata, [e for e in entries if e is not None],
                  analysis.classification[0])


# ---------------------------------------------------------------------------
# Deterministic JSON writer: floats carry 17 significant digits.

def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _write_json(value, pieces: list, indent: Optional[int], level: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    closing = "" if indent is None else "\n" + " " * (indent * level)
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                pieces.append(",")
            pieces.append(pad)
            pieces.append(f'"{key}": ' if indent is not None else f'"{key}":')
            _write_json(item, pieces, indent, level + 1)
        pieces.append(closing + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            pieces.append("[]")
            return
        pieces.append("[")
        for i, item in enumerate(items):
            if i:
                pieces.append(",")
            pieces.append(pad)
            _write_json(item, pieces, indent, level + 1)
        pieces.append(closing + "]")
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        pieces.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(_format_float(float(value)))
    elif value is None:
        pieces.append("null")
    else:
        escaped = (str(value).replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n"))
        pieces.append(f'"{escaped}"')


def render_report(report: Report, pretty: bool = False) -> str:
    pieces: list = []
    _write_json(report.to_dict(), pieces, 2 if pretty else None, 0)
    pieces.append("\n")
    return "".join(pieces)
