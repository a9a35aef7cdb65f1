"""Uniform pass/fail records produced by every verification routine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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


def worst_residual(items):
    """The largest residual of (residual, point, fields) triples and its
    witness, the point plus ``fields``.  The maximum starts at 0.0 with no
    witness and moves only to a strictly larger residual, so the first of
    equal maxima is the witness."""
    worst, witness = 0.0, None
    for residual, point, fields in items:
        if residual > worst:
            worst = float(residual)
            witness = {"point": [float(x) for x in point], **fields}
    return worst, witness
