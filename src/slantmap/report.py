"""Analysis orchestration and deterministic JSON report emission.

Checks appear in dependency order (Hermitian target, parallel structure,
Riemannian property, slant classification, then the structural identities).
``CHECKS`` is the one place where a check's preconditions are written, as
gates: a check whose gate fails is reported as skipped, never as failed, and
the check functions assume their preconditions.  An entry is computed on
first request, with only what it depends on, from one shared ``Sample``, and
each quantity is reduced once: the slant block's PHWC and pseudo-homothetic
fields are the outcomes of those two entries.  ``Analysis.report(names)`` is
the one place that turns entries into a report, for ``analyze`` (every name)
and ``check NAME`` (that one): a slant_classification that ran has no entry,
and its report then has the slant block.  A check entry and the slant
block are each written as their dataclass's fields in declaration order,
those that are None or an empty dict left out (``result.record``).  Reports
are byte-identical for a fixed input and seed: containers keep insertion
order, and floats are written in Python's shortest round-trip form, which
parses back to the same double (NaN and infinities as the strings "nan",
"inf" and "-inf").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .charts import ChartError, check_almost_hermitian, check_kahler
from .loader import AnalysisSettings, LoadedMap
from .maps import Sample, check_sff_range_perp, is_riemannian_map
from .result import DEFAULT_CHECK_TOL, EXACT_IDENTITY_TOL, CheckResult
from .slant import (SlantReport, check_adapted_frame,
                    check_harmonic, check_harmonic_minimal_equivalence,
                    check_lambda_mu_consistency, check_minimal_fibers,
                    check_omega_defect_identity, check_omega_parallel,
                    check_phi_parallel, check_phi_squared_scaling,
                    check_phwc, check_pseudo_homothetic,
                    check_q_squared_scaling, check_sff_q_scaling,
                    check_totally_geodesic, classify_slant)

REPORT_SCHEMA = "slantmap-report/2"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


# A gate is (holds, reason): where holds(analysis) is false, the check is
# skipped with the reason, formatted with a=analysis.
_RIEMANNIAN = (lambda a: a._entry("riemannian_map").passed,
               "map is not Riemannian")
_HAS_J = (lambda a: a.spec.target.complex_structure is not None,
          "target has no complex structure")
_CLASSIFIED = (_HAS_J, (lambda a: a._entry("slant_classification") is None,
                        "slant classification failed"), _RIEMANNIAN)
_SLANT = (lambda a: a.slant.is_slant,
          "classification is {a.slant.classification}")
_SLANT_OMEGA_PARALLEL = (
    (lambda a: a.slant.is_slant,
     "precondition unmet: classification is {a.slant.classification}"),
    (lambda a: a.slant.omega_parallel,
     "precondition unmet: omega is not parallel"))

# name -> (gates, run), in report order: run(analysis) gives the entry once
# every gate holds.  Gates and runs look the check functions up when they
# are called.  The run tolerance may tighten lambda_mu_consistency and the
# exact identities (adapted_frame, omega_defect_identity), never loosen them.
CHECKS = {
    "almost_hermitian": (
        (_HAS_J,), lambda a: check_almost_hermitian(a.sample.target, a.tol)),
    "kahler": (
        (_HAS_J, (lambda a: a._entry("almost_hermitian").passed,
                  "target is not almost Hermitian")),
        lambda a: check_kahler(a.sample.target, a.tol)),
    "riemannian_map": ((), lambda a: is_riemannian_map(a.sample, a.tol)),
    "sff_range_perp": (
        (_RIEMANNIAN,), lambda a: check_sff_range_perp(a.sample, a.tol)),
    "harmonic": ((_RIEMANNIAN,), lambda a: check_harmonic(a.sample, a.tol)),
    "minimal_fibers": (
        (_RIEMANNIAN,), lambda a: check_minimal_fibers(a.sample, a.tol)),
    "totally_geodesic": (
        (_RIEMANNIAN,), lambda a: check_totally_geodesic(a.sample, a.tol)),
    # classifies the map; an entry only when the classification could not
    # run, its outcome being otherwise the slant block
    "slant_classification": ((_HAS_J,), lambda a: a.slant and None),
    "phi_squared_scaling": (
        _CLASSIFIED, lambda a: check_phi_squared_scaling(a.slant, a.tol)),
    "q_squared_scaling": (
        _CLASSIFIED, lambda a: check_q_squared_scaling(a.slant, a.tol)),
    "lambda_mu_consistency": (
        _CLASSIFIED + (_SLANT,), lambda a: check_lambda_mu_consistency(
            a.slant, min(a.tol, DEFAULT_CHECK_TOL))),
    "adapted_frame": (
        _CLASSIFIED + ((lambda a: a.slant.sec_defined, "classification is "
                        "{a.slant.classification}: sec(angle) construction "
                        "undefined"),),
        lambda a: check_adapted_frame(a.sample, a.slant,
                                      min(a.tol, EXACT_IDENTITY_TOL))),
    "omega_parallel": (
        _CLASSIFIED, lambda a: check_omega_parallel(a.slant, a.tol)),
    "phi_parallel": (
        _CLASSIFIED, lambda a: check_phi_parallel(a.slant, a.tol)),
    "omega_defect_identity": (
        _CLASSIFIED, lambda a: check_omega_defect_identity(
            a.sample, min(a.tol, EXACT_IDENTITY_TOL))),
    "sff_q_scaling": (
        _CLASSIFIED + _SLANT_OMEGA_PARALLEL,
        lambda a: check_sff_q_scaling(a.sample, a.slant, a.tol)),
    "harmonic_minimal_equivalence": (
        _CLASSIFIED + _SLANT_OMEGA_PARALLEL + (
            (lambda a: a._entry("minimal_fibers").status != "skipped",
             "{a.entries[minimal_fibers].reason}"),),
        lambda a: check_harmonic_minimal_equivalence(
            a._entry("harmonic"), a._entry("minimal_fibers"), a.tol)),
    "phwc": (
        _CLASSIFIED + (_SLANT, (lambda a: a.slant.sec_defined,
                                "the induced horizontal structure is "
                                "undefined at angle pi/2")),
        lambda a: check_phwc(a.sample, a.slant, a.tol)),
    "pseudo_homothetic": (
        _CLASSIFIED + (_SLANT, (lambda a: a._entry("phwc").passed,
                                "precondition unmet: map is not PHWC")),
        lambda a: check_pseudo_homothetic(a.sample, a.slant, a.tol)),
}
CHECK_NAMES = tuple(CHECKS)


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


def sample_points(box, count: int, seed: int) -> np.ndarray:
    """Uniform points in the box, an array (count, dim) filled row by row
    from PCG64's raw stream, each word's 53 high bits a double in [0, 1):
    the draws of ``default_rng(seed).random``, from the one stream that
    numpy's compatibility policy (NEP 19) keeps fixed across versions."""
    raw = np.random.PCG64(seed).random_raw(count * len(box))
    unit = ((raw >> np.uint64(11)) * 2.0**-53).reshape(count, len(box))
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    return lows + unit * (highs - lows)


def error_entry(name: str, exc: Exception) -> CheckResult:
    """The entry of a check that raised exc: a ChartError's message alone
    (it says where the chart fails), any other error's type and message."""
    return CheckResult.error(name, str(exc) if isinstance(exc, ChartError)
                             else f"{type(exc).__name__}: {exc}")


def unknown_check(name: str) -> ValueError:
    """The error for a check name not in CHECK_NAMES, naming those."""
    return ValueError(f"no check {name!r} in the report; "
                      f"available: {', '.join(CHECK_NAMES)}")


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
            "seed": settings.seed,
            "tolerances": {"rank": settings.rank_tol, "check": settings.check_tol,
                           "angle": settings.angle_tol},
        }
        if loaded.digest:
            self.metadata["sha256"] = loaded.digest
        self.tol = settings.check_tol
        self.entries: dict = {}  # name -> entry, as computed

    def entry(self, name: str) -> Optional[CheckResult]:
        """The report entry of a check in CHECK_NAMES (None for a
        slant_classification that ran): skipped at its first gate that does
        not hold, else its run; a check that raises gets an error, and a
        name not in CHECK_NAMES raises (``unknown_check``).  An overflow in
        the checks' arithmetic is its residual (inf or NaN), not a
        warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._entry(name)

    def _entry(self, name: str) -> Optional[CheckResult]:
        """``entry`` within the np.errstate that ``entry`` or ``report`` entered."""
        if name not in self.entries:
            if name not in CHECKS:
                raise unknown_check(name)
            try:
                self.entries[name] = self._compute(name)
            except Exception as exc:
                self.entries[name] = error_entry(name, exc)
        return self.entries[name]

    def _compute(self, name: str) -> Optional[CheckResult]:
        gates, run = CHECKS[name]
        for holds, reason in gates:
            if not holds(self):
                return CheckResult.skipped(name, reason.format(a=self))
        return run(self)

    @cached_property
    def slant(self) -> SlantReport:
        """The slant classification of the sample; raises where it fails."""
        s = self.settings
        return classify_slant(self.sample, s.angle_tol, s.check_tol,
                              riemannian=self._entry("riemannian_map"))

    def report(self, names=CHECK_NAMES) -> Report:
        """The report of the entries of names, in that order, under one
        np.errstate.  Its slant block, when slant_classification is among
        names and ran, is the classification with the outcomes of the phwc
        and pseudo_homothetic checks where they ran.  A name not in
        CHECK_NAMES raises before any check runs."""
        for name in names:  # each name is known before any check runs
            if name not in CHECKS:
                raise unknown_check(name)
        with np.errstate(over="ignore", invalid="ignore"):
            entries = [self._entry(name) for name in names]
            checks = [e for e in entries if e is not None]
            if len(checks) == len(entries):  # no slant_classification that ran
                return Report(self.metadata, checks)
            for name in ("phwc", "pseudo_homothetic"):
                entry = self._entry(name)
                if entry.residual is not None:
                    setattr(self.slant, name, entry.passed)
                    setattr(self.slant, f"{name}_residual", entry.residual)
            return Report(self.metadata, checks, self.slant)

    def point_records(self) -> list:
        """Each sample point with its least and largest slant angle, the
        records of ``--points``: [] unless the classification has run."""
        slant = self.__dict__.get("slant")  # the cached classification
        if slant is None:
            return []
        return [{"point": p, "angles": a} for p, a in
                zip(self.sample.points.tolist(), slant.point_angles.tolist())]


def run_analysis(loaded: LoadedMap,
                 settings: Optional[AnalysisSettings] = None) -> Report:
    """Run every applicable check on the map and assemble the report."""
    return Analysis(loaded, settings).report()


# ---------------------------------------------------------------------------
# Deterministic JSON: strict, with floats in their shortest round-trip form.

def _plain(value):
    """value with tuples made lists, and NaN and the infinities made strings,
    as json.dumps writes them strictly."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    return value


def render_report(report: Report, pretty: bool = False) -> str:
    return render_json(report.to_dict(), pretty)


def render_json(data, pretty: bool = False) -> str:
    """data as the report's deterministic JSON, with a final newline."""
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    layout.update(ensure_ascii=False, allow_nan=False)
    try:  # json writes tuples as lists: only NaN and the infinities need _plain
        return json.dumps(data, **layout) + "\n"
    except ValueError:
        return json.dumps(_plain(data), **layout) + "\n"
