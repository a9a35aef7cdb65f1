"""Uniform pass/fail records produced by every verification routine."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import cache, partial
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


# The rule of each analysis setting: the value as stored, a Python int or
# float (a numpy scalar's too), or a ValueError saying what the value must
# be, which the caller locates by a flag, a JSON pointer or a field name.

def is_number(value, kind=(int, float)) -> bool:
    """A finite number of ``kind``, a numpy scalar read as its Python number;
    NaN, the infinities, True, False are not."""
    if isinstance(value, np.generic):
        value = value.item()
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _integer(value, least: int) -> int:
    if not (is_number(value, int) and value >= least):
        raise ValueError(f"must be an integer >= {least}")
    return int(value)


def _tolerance(value, below: tuple = (math.inf, "")) -> float:
    if not (is_number(value) and value > 0):
        raise ValueError("must be a positive finite number")
    if not value < below[0]:
        raise ValueError(f"must be below {below[1]}")
    return float(value)


SETTING_RULES = {
    "points": partial(_integer, least=1),
    "seed": partial(_integer, least=0),  # numpy seeds must not be negative
    # no singular value passes a relative rank cutoff of 1
    "rank_tol": partial(_tolerance, below=(1.0, "1")),
    "check_tol": _tolerance,
    # from pi/4 on the invariant and anti-invariant angle bands overlap
    "angle_tol": partial(_tolerance, below=(math.pi / 4, "pi/4")),
}


def library_setting(name: str, value, what: str):
    """SETTING_RULES[name](value), its error as "<what> must be ..., got <value>"."""
    try:
        return SETTING_RULES[name](value)
    except ValueError as exc:
        raise ValueError(f"{what} {exc}, got {value!r}") from None


@dataclass
class CheckResult:
    """One check's outcome; its report record (``to_dict``) is its fields in
    this order, without those that are None or an empty dict."""

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
                      samples: Optional[int] = None, witness: Optional[dict] = None,
                      detail: Optional[dict] = None,
                      reason: Optional[str] = None) -> "CheckResult":
        status = PASS if residual <= tol and reason is None else FAIL
        return CheckResult(name, status, float(residual), tol, samples, reason,
                           witness if status == FAIL else None, detail or {})

    @staticmethod
    def skipped(name: str, reason: str) -> "CheckResult":
        return CheckResult(name, SKIPPED, reason=reason)

    @staticmethod
    def error(name: str, reason: str) -> "CheckResult":
        return CheckResult(name, ERROR, reason=reason)

    def to_dict(self) -> dict:
        return record(self)


def record(obj) -> dict:
    """The fields of the dataclass instance obj in declaration order, those
    that are None or an empty dict left out: every report record's rule."""
    values = obj.__dict__
    return {name: value for name in _field_names(type(obj))
            if (value := values[name]) is not None and value != {}}


@cache
def _field_names(cls) -> tuple:
    """The field names of the dataclass cls in order, read once per class."""
    return tuple(f.name for f in fields(cls))


def checked(name: str, tol: float, parts, points, count: int = 1,
            detail=None, reason=None) -> CheckResult:
    """The entry of a check whose count residuals' (rows, norms) parts fold
    as ``worst_norms``: the first worst is its residual, samples the number
    of points, detail(*worsts) its detail, and reason() fails it if not None."""
    worsts, witness = worst_norms(parts, points, count)
    return CheckResult.from_residual(name, worsts[0], tol, len(points), witness,
                                     detail and detail(*worsts), reason and reason())


# A point's residual of at least TIE times the largest ties with it: 8 ulps,
# relative, so that rounding does not pick the witness.  Below TINY a worst
# may have lost bits to underflow.
TIE, TINY = 1.0 - 8 * np.finfo(float).eps, 2.0 ** -500


def _norms(entries) -> np.ndarray:
    # one entry per point: |x|, the bits of sqrt(x^2) where x^2 is normal
    return (np.sqrt(np.add.reduce(np.square(entries, dtype=float),
                                  axis=tuple(range(1, entries.ndim))))
            if entries.ndim > 1 else np.abs(entries))


def point_norms(entries):
    """(norms, worst): each point's Frobenius norm of its entries (an array
    (points, ...) of components in orthonormal frames, so the g-norm), and
    the largest.  A worst that is NaN, infinite or below TINY while an entry
    is not 0 folds again, the entries times the power of two that brings the
    largest finite one into [0.5, 1), a NaN entry as 0, and each norm times
    the inverse: exact, so a norm whose squares overflow or underflow is
    itself."""
    norms = _norms(entries)
    worst = float(np.maximum.reduce(norms, initial=0.0))
    if not TINY <= worst < math.inf and entries.any():
        entries = np.where(np.isnan(entries), 0.0, entries)
        _, exponent = np.frexp(np.max(np.abs(entries), initial=0.0,
                                      where=np.isfinite(entries)))
        norms = np.ldexp(_norms(np.ldexp(entries, -exponent)), exponent)
        worst = float(np.maximum.reduce(norms, initial=0.0))
    return norms, worst


def worst_norms(parts, points, count: int = 1):
    """The largest of each of count residuals, and the witness of the first:
    ``parts`` holds (rows, norms) pairs, count ``point_norms`` of the points
    ``points[rows]`` (rows increasing), or of one that stands for every row.
    The witness is the first point in sample order whose first residual is
    at least TIE times the largest, and none when that is 0.0."""
    worsts = [0.0] * count
    for _, norms in parts:
        worsts = [max(worst, part) for worst, (_, part) in zip(worsts, norms)]
    if not worsts[0] > 0.0:
        return worsts, None
    tie = worsts[0] * TIE  # the first such point of each part that has one
    i = min(rows[(norms[0][0] >= tie).argmax()]  # parts of two ranks interleave
            for rows, norms in parts if norms[0][1] >= tie)
    return worsts, {"point": points[i].tolist()}

