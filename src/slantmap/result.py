"""Uniform pass/fail records produced by every verification routine."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
ERROR = "error"

# Default tolerances, shared by the checks and the loader's settings.
DEFAULT_RANK_TOL = 1e-8   # relative singular-value cutoff for the rank
DEFAULT_CHECK_TOL = 1e-8
DEFAULT_ANGLE_TOL = 1e-6  # radians
# Ceiling of the checks of exact identities (adapted_frame,
# omega_defect_identity): a run tolerance may tighten it, never loosen it.
EXACT_IDENTITY_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    status: str
    residual: Optional[float] = None
    tol: Optional[float] = None
    samples: Optional[int] = None
    reason: Optional[str] = None
    witness: Optional[dict] = None
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @staticmethod
    def from_residual(name: str, residual: float, tol: float,
                      samples: Optional[int] = None,
                      witness: Optional[dict] = None,
                      detail: Optional[dict] = None) -> "CheckResult":
        status = PASS if residual <= tol else FAIL
        return CheckResult(name, status, residual=float(residual), tol=tol,
                           samples=samples,
                           witness=witness if status == FAIL else None,
                           detail=detail or {})

    @staticmethod
    def skipped(name: str, reason: str) -> "CheckResult":
        return CheckResult(name, SKIPPED, reason=reason)

    @staticmethod
    def error(name: str, reason: str) -> "CheckResult":
        return CheckResult(name, ERROR, reason=reason)

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.residual is not None:
            out["residual"] = self.residual
        if self.tol is not None:
            out["tol"] = self.tol
        if self.samples is not None:
            out["samples"] = self.samples
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


def worst_residual(parts, points, fields=lambda *index: {}):
    """The largest residual and its witness: the point plus ``fields`` of
    the residual's index at that point.

    ``parts`` holds (rows, residuals) pairs: residuals (len(rows), ...) at the
    points ``points[rows]``.  The witness is the one a fold over the points
    in order, and over each point's residuals in C order, takes when it
    starts at 0.0 and moves only to a strictly larger residual: the first of
    equal maxima.  NaN is passed over, and with no residual above 0.0 there
    is no witness.
    """
    best = np.zeros(len(points))
    at = np.zeros(len(points), dtype=np.intp)
    part = np.zeros(len(points), dtype=np.intp)
    shapes = []
    for k, (rows, residuals) in enumerate(parts):
        residuals = np.asarray(residuals, dtype=float)
        flat = np.fmax(residuals.reshape(len(residuals),
                                         math.prod(residuals.shape[1:])), 0.0)
        if flat.shape[1]:
            first = flat.argmax(axis=1)
            at[rows] = first
            best[rows] = np.take_along_axis(flat, first[:, None], 1)[:, 0]
        part[rows] = k
        shapes.append(residuals.shape[1:])
    i = int(best.argmax()) if len(best) else 0
    if not len(best) or not best[i] > 0.0:
        return 0.0, None
    index = np.unravel_index(at[i], shapes[part[i]])
    return float(best[i]), {"point": [float(x) for x in points[i]],
                            **fields(*(int(j) for j in index))}
