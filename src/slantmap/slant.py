"""Slant structure of Riemannian maps into almost Hermitian targets.

For a horizontal vector X the image J F_*X splits into a tangential part
(phi, inside the range of F_*) and a normal part (omega); vectors normal to
the range split the same way into B (tangential) and C (normal).  The
composite Q = adjoint o phi o F_* acts on the horizontal space and its square
is -cos^2(theta) times the identity exactly when the angle theta between
J F_*X and the range is constant.  Everything here is computed pointwise in
the orthonormal frames delivered by the tangent splitting; the per-point
pieces (phi, omega, Q and their covariant derivatives) live with the frame in
``maps``, and every check that reads frames takes them from one ``Sample``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .maps import (MapDefinitionError, MapSpec, PointFrame, Sample,
                   fiber_geodesy_residual, fiber_mean_curvature_from_frame,
                   gram_residual, horizontal_geodesy_residual,
                   is_riemannian_map, normal_part, phi_omega_from_frame,
                   point_frame, q_apply, require_complex_structure,
                   section_derivatives, sff_global_max, tangential_part,
                   tension_from_frame)
from .result import (DEFAULT_ANGLE_TOL, DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL,
                     EXACT_IDENTITY_TOL, CheckResult, worst_residual)

INVARIANT = "invariant"
ANTI_INVARIANT = "anti_invariant"
PROPER_SLANT = "proper_slant"
NOT_SLANT = "not_slant"
NOT_RIEMANNIAN = "not_riemannian"
SLANT_CLASSES = (INVARIANT, ANTI_INVARIANT, PROPER_SLANT)


def phi_omega_decompose(spec: MapSpec, p, X,
                        rank_tol: float = DEFAULT_RANK_TOL):
    """Split J F_*X into its range part (phi) and normal part (omega)."""
    return phi_omega_from_frame(point_frame(spec, p, rank_tol), X)


def bc_decompose(spec: MapSpec, p, V, rank_tol: float = DEFAULT_RANK_TOL):
    """Split J V for a normal vector V into range part (B) and normal part (C)."""
    return bc_from_frame(point_frame(spec, p, rank_tol), V)


def bc_from_frame(frame: PointFrame, V):
    w = require_complex_structure(frame) @ np.asarray(V, dtype=float)
    b = tangential_part(frame, w)
    return b, w - b


def slant_angle(spec: MapSpec, p, X, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Angle in [0, pi/2] between J F_*X and the range of F_*.

    Computed as atan2(|omega part|, |phi part|), which stays accurate at both
    extremes where an arccos of the cosine ratio loses half the digits.
    """
    return slant_angle_from_frame(point_frame(spec, p, rank_tol), X)


def slant_angle_from_frame(frame: PointFrame, X) -> float:
    if frame.g_target.norm(frame.pushforward(X)) == 0.0:
        raise ValueError("direction lies in the kernel of the differential")
    phi, omega = phi_omega_from_frame(frame, X)
    return math.atan2(frame.g_target.norm(omega), frame.g_target.norm(phi))


def q_operator(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    return point_frame(spec, p, rank_tol).q


def q_matrix(frame: PointFrame) -> np.ndarray:
    """Matrix of Q in the orthonormal horizontal frame: ``frame.q``.  Kept as
    a named function because perfbench/tracer.py traces it by name."""
    return frame.q


@dataclass
class PointOperators:
    """Frame matrices of the structure operators at one point.

    jtilde and jhat are the sec(theta)-rescaled tangential operators (on the
    range and horizontal frames); they are filled only when an angle is
    supplied, since theta is a map-level quantity.
    """

    phi: np.ndarray      # (r, r), range frame
    omega: np.ndarray    # (m - r, r), range -> normal frame
    b: np.ndarray        # (r, m - r)
    c: np.ndarray        # (m - r, m - r)
    q: np.ndarray        # (r, r), horizontal frame
    point: np.ndarray
    jtilde: Optional[np.ndarray] = None
    jhat: Optional[np.ndarray] = None


def point_operators(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL,
                    theta: Optional[float] = None) -> PointOperators:
    frame = point_frame(spec, p, rank_tol)
    # J in the range-then-normal target frame; its blocks are phi, omega, B, C
    basis = np.hstack([frame.split.range.columns, frame.split.range_perp.columns])
    blocks = basis.T @ frame.g_target.matrix @ require_complex_structure(frame) @ basis
    r = frame.rank
    ops = PointOperators(phi=blocks[:r, :r], omega=blocks[r:, :r],
                         b=blocks[:r, r:], c=blocks[r:, r:], q=frame.q,
                         point=frame.point)
    if theta is not None:
        if abs(math.cos(theta)) < 1e-12:
            raise ValueError("sec(theta) undefined at angle pi/2")
        sec = 1.0 / math.cos(theta)
        ops.jtilde = sec * ops.phi
        ops.jhat = sec * ops.q
    return ops


# ---------------------------------------------------------------------------
# Parallelism defects

def omega_parallel_defect(spec: MapSpec, p, X, Y,
                          rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Covariant derivative of the omega operator, as a normal vector.

    Measures nabla^perp_X (omega F_*Y) - omega F_*(nabla_X Y) with Y extended
    by constant coefficients.  Zero everywhere means omega is parallel.
    """
    frame = point_frame(spec, p, rank_tol)
    derivatives = section_derivatives(frame, np.reshape(X, (-1, 1)))
    return derivatives.omega_defect[0] @ np.asarray(Y, dtype=float)


def omega_defect_algebraic(frame: PointFrame, X, Y) -> np.ndarray:
    """Closed form of the omega defect: C(sff(X, Y)) - sff(X, QY).

    Valid when the target structure is parallel; it uses only the second
    fundamental form, so it cross-checks the derivative-based defect.
    """
    J = require_complex_structure(frame)
    sff_xy = normal_part(frame, frame.sff_value(X, Y))
    c_part = normal_part(frame, J @ sff_xy)
    return c_part - frame.sff_value(X, q_apply(frame, Y))


def phi_parallel_defect(spec: MapSpec, p, X, Y,
                        rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Covariant derivative of the phi operator, as a range vector.

    Returns nabla^F_X (phi F_*Y) - phi F_*(nabla_X Y) - sff(X, QY); the QY
    term realizes phi F_*Y = F_*(QY) on the horizontal space.
    """
    frame = point_frame(spec, p, rank_tol)
    derivatives = section_derivatives(frame, np.reshape(X, (-1, 1)))
    return derivatives.phi_defect[0] @ np.asarray(Y, dtype=float)


# ---------------------------------------------------------------------------
# Classification

@dataclass
class SlantReport:
    """Aggregated slant classification with every derived quantity."""

    classification: str
    angle_tol: float
    rank: Optional[int] = None
    mean_angle: Optional[float] = None
    max_deviation: Optional[float] = None
    point_angles: List[dict] = field(default_factory=list)
    lambda_estimate: Optional[float] = None
    lambda_residual: Optional[float] = None
    mu_estimate: Optional[float] = None
    mu_residual: Optional[float] = None
    omega_parallel: Optional[bool] = None
    omega_defect: Optional[float] = None
    phi_parallel: Optional[bool] = None
    phi_defect: Optional[float] = None
    phwc: Optional[bool] = None
    phwc_residual: Optional[float] = None
    pseudo_homothetic: Optional[bool] = None
    pseudo_homothetic_residual: Optional[float] = None
    witness: Optional[dict] = None

    @property
    def is_slant(self) -> bool:
        return self.classification in SLANT_CLASSES

    @property
    def sec_defined(self) -> bool:
        return self.classification in (INVARIANT, PROPER_SLANT)

    def to_dict(self) -> dict:
        out = {"classification": self.classification, "angle_tol": self.angle_tol}
        for key in ("rank", "mean_angle", "max_deviation", "lambda_estimate",
                    "lambda_residual", "mu_estimate", "mu_residual",
                    "omega_parallel", "omega_defect", "phi_parallel",
                    "phi_defect", "phwc", "phwc_residual", "pseudo_homothetic",
                    "pseudo_homothetic_residual", "witness"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out["point_angles"] = self.point_angles
        return out


def _horizontal_directions(frame: PointFrame, rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """Unit horizontal vectors drawn as coefficients on the orthonormal frame."""
    h = frame.split.horizontal.columns
    coeff = rng.standard_normal((count, frame.rank))
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    return coeff @ h.T


def classify_slant(sample: Sample, dirs_per_point: int = 6,
                   angle_tol: float = DEFAULT_ANGLE_TOL,
                   tol: float = DEFAULT_CHECK_TOL,
                   seed: int = 42,
                   riemannian: Optional[CheckResult] = None) -> SlantReport:
    """Sample the slant angle over points and directions and classify the map.

    Fills the angle statistics, the proportionality constants fitted from
    phi^2 and Q^2, the parallelism defects of omega and phi, and the
    pseudo-horizontally-weakly-conformal / pseudo-homothetic flags.
    ``riemannian`` is the riemannian_map result for the same sample and
    tolerance, when the caller already has it.
    """
    frames = list(sample.frames())  # a failed build raises as the Riemannian test would
    if riemannian is None:
        riemannian = is_riemannian_map(sample, tol)
    if not riemannian.passed:
        return SlantReport(NOT_RIEMANNIAN, angle_tol,
                           witness=riemannian.witness,
                           rank=riemannian.detail.get("rank"))

    rng = np.random.default_rng(seed)
    rank = frames[0].rank

    angles = []
    point_angles = []
    for frame in frames:
        directions = _horizontal_directions(frame, rng, dirs_per_point)
        theta_here = [slant_angle_from_frame(frame, X) for X in directions]
        angles.extend(theta_here)
        point_angles.append({"point": [float(x) for x in frame.point],
                             "angles": [float(t) for t in theta_here]})
    mean_angle = float(np.mean(angles))
    deviations = [abs(t - mean_angle) for t in angles]
    max_dev = float(max(deviations))
    worst = int(np.argmax(deviations))
    witness = {"point": point_angles[worst // dirs_per_point]["point"],
               "angle": float(angles[worst])}

    if max_dev > angle_tol:
        classification = NOT_SLANT
    elif mean_angle <= angle_tol:
        classification = INVARIANT
    elif mean_angle >= math.pi / 2 - angle_tol:
        classification = ANTI_INVARIANT
    else:
        classification = PROPER_SLANT

    report = SlantReport(classification, angle_tol, rank=rank,
                         mean_angle=mean_angle, max_deviation=max_dev,
                         point_angles=point_angles,
                         witness=witness if classification == NOT_SLANT else None)

    _fit_lambda(report, frames, rng, dirs_per_point)
    _fit_mu(report, frames)
    _parallelism(report, frames, tol)
    _phwc_flags(report, frames, tol)
    return report


def _fit_lambda(report: SlantReport, frames, rng, dirs_per_point: int) -> None:
    numerator = denominator = 0.0
    samples = []
    for frame in frames:
        X = _horizontal_directions(frame, rng, dirs_per_point).T
        fx = frame.jacobian @ X  # one column per direction, as is phi2
        phi2 = tangential_part(frame, frame.complex_structure @ (frame.phi @ X))
        numerator += np.einsum("ia,ij,ja->", phi2, frame.g_target.matrix, fx)
        denominator += np.einsum("ia,ij,ja->", fx, frame.g_target.matrix, fx)
        samples.append((frame, phi2, fx))
    lam = numerator / denominator
    report.lambda_estimate = float(lam)
    report.lambda_residual = float(max(max(frame.g_target.norms(phi2 - lam * fx))
                                       for frame, phi2, fx in samples))


def _fit_mu(report: SlantReport, frames) -> None:
    squares = [frame.q @ frame.q for frame in frames]
    mu = sum(np.trace(q2) for q2 in squares) / sum(len(q2) for q2 in squares)
    report.mu_estimate = float(mu)
    report.mu_residual = max([0.0] + [float(np.abs(q2 - mu * np.eye(len(q2))).max())
                                      for q2 in squares])


def _parallelism(report: SlantReport, frames, tol: float) -> None:
    omega_max = phi_max = 0.0
    for frame in frames:
        norms = frame.g_target.norms
        omega_max = max(omega_max, norms(frame.omega_defects).max())
        phi_max = max(phi_max, norms(frame.phi_defects).max())
    report.omega_defect = float(omega_max)
    report.omega_parallel = report.omega_defect <= tol
    report.phi_defect = float(phi_max)
    report.phi_parallel = report.phi_defect <= tol


def _phwc_flags(report: SlantReport, frames, tol: float) -> None:
    if not report.sec_defined:
        return
    sec = 1.0 / math.cos(report.mean_angle)
    worst = 0.0
    for frame in frames:
        worst = max(worst, *phwc_residuals(frame, sec))
    report.phwc_residual = worst
    report.phwc = worst <= tol
    if not report.phwc:
        return
    mixed, _ = worst_residual(item for frame in frames
                              for item in mixed_sff(frame))
    residual = max(report.phi_defect or 0.0, mixed)
    report.pseudo_homothetic_residual = float(residual)
    report.pseudo_homothetic = residual <= tol


def phwc_residuals(frame: PointFrame, sec: float):
    """How far sec(theta) Q is from a compatible complex structure at the
    frame: the norms of jhat^2 + I (square) and jhat^T jhat - I (Hermitian)."""
    jhat = sec * frame.q
    identity = np.eye(frame.rank)
    return (float(np.linalg.norm(jhat @ jhat + identity)),
            float(np.linalg.norm(jhat.T @ jhat - identity)))


def mixed_sff(frame: PointFrame):
    """(|sff(h_a, u_c)|, point, where) over horizontal h_a and vertical u_c,
    in the order worst_residual reads them."""
    values = frame.sff_value(frame.split.horizontal.columns,
                             frame.split.kernel.columns)
    for (a, c), value in np.ndenumerate(frame.g_target.norms(values)):
        yield value, frame.point, {"horizontal": a, "vertical": c}


# ---------------------------------------------------------------------------
# Adapted frames

def adapted_frame(spec: MapSpec, p, angle_tol: float = DEFAULT_ANGLE_TOL,
                  rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal horizontal frame of the form {e, sec(theta) Q e, ...}.

    Greedy construction: pick a horizontal unit vector, append its normalized
    Q-partner, re-orthogonalize the remaining horizontal directions, repeat.
    Fails for anti-invariant maps, where Q vanishes.
    """
    return adapted_frame_from_frame(point_frame(spec, p, rank_tol), angle_tol)


def adapted_frame_from_frame(frame: PointFrame,
                             angle_tol: float = DEFAULT_ANGLE_TOL) -> np.ndarray:
    r = frame.rank
    if r == 0:
        raise MapDefinitionError("map has rank zero: no horizontal space")
    g1 = frame.g_source
    chosen: list = []

    def orthogonalized(v):
        w = np.asarray(v, dtype=float).copy()
        for _ in range(2):
            for b in chosen:
                w = w - g1.inner(b, w) * b
        return w

    candidates = [frame.split.horizontal.columns[:, a] for a in range(r)]
    while len(chosen) < r:
        residuals = [orthogonalized(c) for c in candidates]
        norms = [g1.norm(w) for w in residuals]
        best = int(np.argmax(norms))
        if norms[best] < 1e-10:
            raise ValueError("horizontal space exhausted before the frame closed")
        e = residuals[best] / norms[best]
        theta = slant_angle_from_frame(frame, e)
        if theta >= math.pi / 2 - angle_tol:
            raise ValueError("Q vanishes for an anti-invariant map: no adapted frame")
        partner = q_apply(frame, e) / math.cos(theta)
        chosen.append(e)
        chosen.append(partner)
    return np.column_stack(chosen[:r])


# ---------------------------------------------------------------------------
# Check suite built on the classification.  A check that reads frames takes
# the run's Sample.

def check_phi_squared_scaling(report: SlantReport,
                              tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """phi^2 acts as a constant lambda in [-1, 0] on the range iff the map is slant.

    The detail block cross-checks the fitted constant against the angle
    samples: for a slant map lambda must equal -cos^2(mean angle).
    """
    if report.classification == NOT_RIEMANNIAN:
        return CheckResult.skipped("phi_squared_scaling", "map is not Riemannian")
    lam, residual = report.lambda_estimate, report.lambda_residual
    in_range = -1.0 - tol <= lam <= tol
    status = "pass" if residual <= tol and in_range else "fail"
    detail = {"lambda": lam, "lambda_in_range": in_range}
    if report.mean_angle is not None:
        detail["angle_gap"] = abs(lam + math.cos(report.mean_angle) ** 2)
    return CheckResult("phi_squared_scaling", status, residual=residual, tol=tol,
                       detail=detail)


def check_q_squared_scaling(report: SlantReport,
                            tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Q^2 acts as a constant mu in [-1, 0] on the horizontal space iff slant."""
    if report.classification == NOT_RIEMANNIAN:
        return CheckResult.skipped("q_squared_scaling", "map is not Riemannian")
    mu, residual = report.mu_estimate, report.mu_residual
    in_range = -1.0 - tol <= mu <= tol
    status = "pass" if residual <= tol and in_range else "fail"
    return CheckResult("q_squared_scaling", status, residual=residual, tol=tol,
                       detail={"mu": mu, "mu_in_range": in_range})


def check_lambda_mu_consistency(report: SlantReport,
                                tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """For slant maps both fitted constants equal -cos^2(mean angle)."""
    if not report.is_slant:
        return CheckResult.skipped("lambda_mu_consistency",
                                   f"classification is {report.classification}")
    expected = -math.cos(report.mean_angle) ** 2
    residual = max(abs(report.lambda_estimate - report.mu_estimate),
                   abs(report.lambda_estimate - expected),
                   abs(report.mu_estimate - expected))
    return CheckResult.from_residual(
        "lambda_mu_consistency", residual, tol,
        detail={"lambda": report.lambda_estimate, "mu": report.mu_estimate,
                "minus_cos_squared": expected})


def check_adapted_frame(sample: Sample, report: SlantReport,
                        tol: float = EXACT_IDENTITY_TOL) -> CheckResult:
    """Gram residual of the greedy adapted frame at every sample point."""
    if not report.sec_defined:
        return CheckResult.skipped(
            "adapted_frame", f"classification is {report.classification}: "
            "sec(angle) construction undefined")
    worst, witness = worst_residual(
        (gram_residual(adapted_frame_from_frame(frame, report.angle_tol),
                       frame.g_source), frame.point, {})
        for frame in sample.frames())
    return CheckResult.from_residual("adapted_frame", worst, tol,
                                     samples=len(sample), witness=witness)


def check_omega_parallel(report: SlantReport,
                         tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    if report.omega_defect is None:
        return CheckResult.skipped("omega_parallel", "map is not Riemannian")
    return CheckResult.from_residual("omega_parallel", report.omega_defect, tol)


def check_phi_parallel(report: SlantReport,
                       tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    if report.phi_defect is None:
        return CheckResult.skipped("phi_parallel", "map is not Riemannian")
    return CheckResult.from_residual("phi_parallel", report.phi_defect, tol)


def check_omega_defect_identity(sample: Sample,
                                tol: float = EXACT_IDENTITY_TOL) -> CheckResult:
    """The omega defect must match its algebraic form C(sff) - sff(., Q.).

    One side differentiates omega(F_*Y) along X exactly (projector and
    complex-structure derivatives plus the normal connection); the other uses
    only the second fundamental form and Q.  The two routes share no
    derivative formula, so agreement validates both.
    """
    def residuals(frame):
        h = frame.split.horizontal.columns
        return frame.omega_defects - omega_defect_algebraic(frame, h, h)

    worst, witness = worst_residual(
        item for frame in sample.frames()
        for item in _pair_items(frame, residuals(frame)))
    return CheckResult.from_residual("omega_defect_identity", worst, tol,
                                     samples=len(sample), witness=witness)


def check_sff_q_scaling(sample: Sample, report: SlantReport,
                        tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """With omega parallel, sff(QX, QY) = -cos^2(theta) sff(X, Y)."""
    if not report.is_slant:
        return CheckResult.skipped("sff_q_scaling",
                                   f"precondition unmet: classification is "
                                   f"{report.classification}")
    if not report.omega_parallel:
        return CheckResult.skipped("sff_q_scaling",
                                   "precondition unmet: omega is not parallel")
    factor = -math.cos(report.mean_angle) ** 2

    def residuals(frame):
        h = frame.split.horizontal.columns
        qh = q_apply(frame, h)
        return frame.sff_value(qh, qh) - factor * frame.sff_value(h, h)

    worst, witness = worst_residual(
        item for frame in sample.frames()
        for item in _pair_items(frame, residuals(frame)))
    return CheckResult.from_residual("sff_q_scaling", worst, tol,
                                     samples=len(sample), witness=witness)


def _pair_items(frame: PointFrame, vectors: np.ndarray):
    """(norm, point, pair) of the vectors [a, :, b] of a horizontal-pair
    tensor, a before b, in the order worst_residual reads them."""
    for (a, b), residual in np.ndenumerate(frame.g_target.norms(vectors)):
        yield residual, frame.point, {"pair": [a, b]}


def check_harmonic(sample: Sample, tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Largest tension-field norm over the samples; zero means harmonic."""
    worst, witness = worst_residual(
        (frame.g_target.norm(tension_from_frame(frame)), frame.point, {})
        for frame in sample.frames())
    return CheckResult.from_residual("harmonic", worst, tol,
                                     samples=len(sample), witness=witness)


def check_minimal_fibers(sample: Sample,
                         tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Largest fiber mean-curvature norm; zero means minimal fibers."""
    try:
        worst, witness = worst_residual(
            (frame.g_target.norm(fiber_mean_curvature_from_frame(frame)),
             frame.point, {}) for frame in sample.frames())
    except MapDefinitionError as exc:  # an immersion has no fibers
        return CheckResult.skipped("minimal_fibers", str(exc))
    return CheckResult.from_residual("minimal_fibers", worst, tol,
                                     samples=len(sample), witness=witness)


def check_harmonic_minimal_equivalence(sample: Sample, report: SlantReport,
                                       tol: float = DEFAULT_CHECK_TOL,
                                       harmonic: Optional[CheckResult] = None,
                                       fibers: Optional[CheckResult] = None
                                       ) -> CheckResult:
    """With omega parallel, harmonicity and minimal fibers hold or fail together.

    ``harmonic`` and ``fibers`` are the harmonic and minimal_fibers results
    for the same sample and tolerance, when the caller already has them.
    """
    if not report.is_slant:
        return CheckResult.skipped("harmonic_minimal_equivalence",
                                   f"precondition unmet: classification is "
                                   f"{report.classification}")
    if not report.omega_parallel:
        return CheckResult.skipped("harmonic_minimal_equivalence",
                                   "precondition unmet: omega is not parallel")
    if harmonic is None:
        harmonic = check_harmonic(sample, tol)
    if fibers is None:
        fibers = check_minimal_fibers(sample, tol)
    if fibers.status == "skipped":
        return CheckResult.skipped("harmonic_minimal_equivalence", fibers.reason)
    agree = harmonic.passed == fibers.passed
    return CheckResult(
        "harmonic_minimal_equivalence", "pass" if agree else "fail",
        residual=abs(harmonic.residual - fibers.residual), tol=tol,
        samples=len(sample),
        detail={"tension_residual": harmonic.residual,
                "fiber_residual": fibers.residual,
                "harmonic": harmonic.passed, "minimal_fibers": fibers.passed})


def _condition_three_residual(frame: PointFrame) -> float:
    """Pairing identity linking the shape operator, B/C parts and the normal
    connection on horizontal pairs against every normal frame vector:
    sum_c g2(BV, F_*h_c) g2(omega F_*Y, sff(X, h_c))
        = g2(nabla^perp_X omega F_*Y, CV) - g2(nabla^perp_X omega F_*QY, V)."""
    h = frame.split.horizontal.columns
    perp = frame.split.range_perp.columns
    if perp.shape[1] == 0 or frame.rank == 0:
        return 0.0
    G = frame.g_target.matrix
    normal = np.eye(len(G)) - frame.range_projector
    jv = frame.complex_structure @ perp
    bv = frame.range_projector @ jv
    b_pushed = bv.T @ G @ frame.jacobian @ h          # (v, c)
    omega_h = (frame.j_pushforward - frame.phi) @ h   # omega F_*h_b
    q_h = frame.adjoint_phi @ h                       # Q h_b
    d_omega = frame.horizontal_derivatives.omega      # along h_a at [a]
    sff_h = frame.sff_value(h, h)                     # sff(h_a, h_c) at [a]
    lhs = b_pushed @ np.swapaxes(sff_h, 1, 2) @ G @ omega_h   # (a, v, b)
    rhs = ((jv - bv).T @ G @ normal @ d_omega @ h
           - perp.T @ G @ normal @ d_omega @ q_h)
    return float(np.abs(lhs - rhs).max())


def check_totally_geodesic(sample: Sample,
                           tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Vanishing of the second fundamental form, with a per-condition breakdown.

    Reports the global sff maximum together with the three structural
    conditions: totally geodesic fibers, totally geodesic horizontal
    distribution, and the shape-operator pairing identity on normal vectors.
    """
    frames = list(sample.frames())
    global_max, witness = worst_residual((sff_global_max(frame), frame.point, {})
                                         for frame in frames)
    fiber_max = max([0.0] + [fiber_geodesy_residual(f) for f in frames])
    horizontal_max = max([0.0] + [horizontal_geodesy_residual(f) for f in frames])
    detail = {
        "fiber_residual": fiber_max,
        "fibers_totally_geodesic": fiber_max <= tol,
        "horizontal_residual": horizontal_max,
        "horizontal_totally_geodesic": horizontal_max <= tol,
    }
    if sample.spec.target.complex_structure is not None:
        third_max = max([0.0] + [_condition_three_residual(f) for f in frames])
        detail["pairing_residual"] = third_max
        detail["pairing_holds"] = third_max <= tol
        joint = (fiber_max <= tol and horizontal_max <= tol and third_max <= tol)
        detail["conditions_agree"] = joint == (global_max <= tol)
    return CheckResult.from_residual("totally_geodesic", global_max, tol,
                                     samples=len(sample), witness=witness,
                                     detail=detail)


def check_phwc(sample: Sample, report: SlantReport,
               tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Pseudo horizontal weak conformality: sec(theta) Q is a compatible
    complex structure for the horizontal metric."""
    if not report.is_slant:
        return CheckResult.skipped("phwc",
                                   f"classification is {report.classification}")
    if not report.sec_defined:
        return CheckResult.skipped(
            "phwc", "the induced horizontal structure is undefined at angle pi/2")
    sec = 1.0 / math.cos(report.mean_angle)
    frames = list(sample.frames())
    pairs = [phwc_residuals(frame, sec) for frame in frames]
    residual, witness = worst_residual((max(pair), frame.point, {})
                                       for frame, pair in zip(frames, pairs))
    return CheckResult.from_residual(
        "phwc", residual, tol, samples=len(sample), witness=witness,
        detail={"square_residual": max([0.0] + [s for s, _ in pairs]),
                "hermitian_residual": max([0.0] + [h for _, h in pairs])})


def check_pseudo_homothetic(sample: Sample, report: SlantReport,
                            tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Pseudo homothety: phi parallel and no mixed horizontal-vertical sff.

    Also cross-checks the induced-structure derivative along both available
    routes: pushing sec(theta)(nabla_X(QY) - Q nabla_X Y) forward must match
    sec(theta) times the phi defect, and its pairing with vertical vectors
    must match sec(theta) g2(phi F_*Y, sff(X, U)).
    """
    if not report.is_slant:
        return CheckResult.skipped("pseudo_homothetic",
                                   f"classification is {report.classification}")
    if report.phwc is None or not report.phwc:
        return CheckResult.skipped("pseudo_homothetic",
                                   "precondition unmet: map is not PHWC")
    sec = 1.0 / math.cos(report.mean_angle)
    frames = list(sample.frames())
    mixed_max, witness = worst_residual(item for frame in frames
                                        for item in mixed_sff(frame))
    frame_deriv_max = vertical_pair_max = 0.0
    for frame in frames:
        h = frame.split.horizontal.columns
        kernel = frame.split.kernel.columns
        phi_h = frame.phi @ h
        # [a, :, b]: sec(theta) (nabla_{h_a}(Q h_b) - Q nabla_{h_a} h_b)
        jhat_deriv = sec * (frame.horizontal_derivatives.q @ h
                            - q_apply(frame, frame.covariant_source(h, h)))
        frame_deriv_max = max(frame_deriv_max, frame.g_target.norms(
            frame.pushforward(jhat_deriv) - sec * frame.phi_defects).max())
        lhs = np.swapaxes(jhat_deriv, 1, 2) @ frame.g_source.matrix @ kernel
        rhs = sec * phi_h.T @ frame.g_target.matrix @ frame.sff_value(h, kernel)
        vertical_pair_max = max(vertical_pair_max,
                                float(np.abs(lhs - rhs).max(initial=0.0)))
    # phi parallelism was measured, over the same pairs, by the classification
    residual = max(report.phi_defect, mixed_max)
    return CheckResult.from_residual(
        "pseudo_homothetic", residual, tol, samples=len(sample),
        witness=witness,
        detail={"phi_defect": report.phi_defect, "mixed_sff": mixed_max,
                "structure_derivative_residual": float(frame_deriv_max),
                "vertical_pairing_residual": vertical_pair_max})
