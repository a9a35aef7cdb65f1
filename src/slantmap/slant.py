"""Slant structure of Riemannian maps into almost Hermitian targets.

For a horizontal vector X the image J F_*X splits into a tangential part
(phi, inside the range of F_*) and a normal part (omega); vectors normal to
the range split the same way into B (tangential) and C (normal).  The
composite Q = adjoint o phi o F_* acts on the horizontal space and its square
is -cos^2(theta) times the identity exactly when the angle theta between
J F_*X and the range is constant.  Everything here is computed pointwise in
the orthonormal frames delivered by the tangent splitting.

Covariant derivatives of the sections phi(F_*Y), omega(F_*Y) and QY, for Y
extended by constant coefficients, are taken along the curve t -> p + tX in
closed form from data the jets already give at the base point: the component
Hessian moves F_*, the metric derivatives follow from the Christoffel
symbols, and the J gradient moves the complex structure.  The range projector
and the metric adjoint are differentiated exactly at constant rank, and the
plain derivatives are corrected with the target (pullback) or source
Christoffel symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .charts import ChartError, metric_derivative
from .linalg import (DEFAULT_RANK_TOL, metric_adjoint_derivative, project,
                     range_projector_derivative)
from .maps import (DEFAULT_CHECK_TOL, MapDefinitionError, MapSpec, PointFrame,
                   fiber_geodesy_residual, fiber_mean_curvature_from_frame,
                   horizontal_geodesy_residual, is_riemannian_map, point_frame,
                   sff_global_max, tension_from_frame)
from .result import CheckResult

DEFAULT_ANGLE_TOL = 1e-6

INVARIANT = "invariant"
ANTI_INVARIANT = "anti_invariant"
PROPER_SLANT = "proper_slant"
NOT_SLANT = "not_slant"
NOT_RIEMANNIAN = "not_riemannian"
SLANT_CLASSES = (INVARIANT, ANTI_INVARIANT, PROPER_SLANT)


def _require_complex_structure(frame: PointFrame) -> np.ndarray:
    if frame.complex_structure is None:
        raise ChartError("target chart has no complex structure")
    return frame.complex_structure


def tangential_part(frame: PointFrame, w) -> np.ndarray:
    return project(w, frame.split.range)


def normal_part(frame: PointFrame, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    return w - project(w, frame.split.range)


def phi_omega_decompose(spec: MapSpec, p, X,
                        rank_tol: float = DEFAULT_RANK_TOL):
    """Split J F_*X into its range part (phi) and normal part (omega)."""
    frame = point_frame(spec, p, rank_tol)
    return phi_omega_from_frame(frame, X)


def phi_omega_from_frame(frame: PointFrame, X):
    J = _require_complex_structure(frame)
    w = J @ frame.pushforward(X)
    phi = tangential_part(frame, w)
    return phi, w - phi


def bc_decompose(spec: MapSpec, p, V, rank_tol: float = DEFAULT_RANK_TOL):
    """Split J V for a normal vector V into range part (B) and normal part (C)."""
    frame = point_frame(spec, p, rank_tol)
    return bc_from_frame(frame, V)


def bc_from_frame(frame: PointFrame, V):
    J = _require_complex_structure(frame)
    w = J @ np.asarray(V, dtype=float)
    b = tangential_part(frame, w)
    return b, w - b


def slant_angle(spec: MapSpec, p, X, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Angle in [0, pi/2] between J F_*X and the range of F_*.

    Computed as atan2(|omega part|, |phi part|), which stays accurate at both
    extremes where an arccos of the cosine ratio loses half the digits.
    """
    frame = point_frame(spec, p, rank_tol)
    return slant_angle_from_frame(frame, X)


def slant_angle_from_frame(frame: PointFrame, X) -> float:
    if frame.g_target.norm(frame.pushforward(X)) == 0.0:
        raise ValueError("direction lies in the kernel of the differential")
    phi, omega = phi_omega_from_frame(frame, X)
    return math.atan2(frame.g_target.norm(omega), frame.g_target.norm(phi))


def q_apply(frame: PointFrame, X) -> np.ndarray:
    """Q X = adjoint(phi(F_* X)), a horizontal vector in the source tangent."""
    phi, _ = phi_omega_from_frame(frame, X)
    return frame.adjoint() @ phi


def q_matrix(frame: PointFrame) -> np.ndarray:
    """Matrix of Q in the orthonormal horizontal frame; skew-symmetric."""
    h = frame.split.horizontal.columns
    r = frame.rank
    out = np.empty((r, r))
    G = frame.g_source.matrix
    for a in range(r):
        qa = q_apply(frame, h[:, a])
        out[:, a] = h.T @ G @ qa
    return out


def q_operator(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    return q_matrix(point_frame(spec, p, rank_tol))


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
    J = _require_complex_structure(frame)
    R = frame.split.range.columns
    P = frame.split.range_perp.columns
    G = frame.g_target.matrix
    ops = PointOperators(
        phi=R.T @ G @ J @ R,
        omega=P.T @ G @ J @ R,
        b=R.T @ G @ J @ P,
        c=P.T @ G @ J @ P,
        q=q_matrix(frame),
        point=frame.point,
    )
    if theta is not None:
        if abs(math.cos(theta)) < 1e-12:
            raise ValueError("sec(theta) undefined at angle pi/2")
        sec = 1.0 / math.cos(theta)
        ops.jtilde = sec * ops.phi
        ops.jhat = sec * ops.q
    return ops


# ---------------------------------------------------------------------------
# Connection machinery along coordinate curves

@dataclass
class SectionDerivatives:
    """Covariant derivatives along X of the sections Y -> phi(F_*Y),
    omega(F_*Y) and QY, as matrices acting on constant-coefficient Y."""

    phi: np.ndarray    # (m, n), pullback connection
    omega: np.ndarray  # (m, n), pullback connection
    q: np.ndarray      # (n, n), source connection


def section_derivatives(frame: PointFrame, X) -> SectionDerivatives:
    """Exact derivatives of the phi, omega and Q sections along t -> p + tX.

    Along the curve F_* moves by dA = Hess(F) X, the metrics by dG1 (along X)
    and dG2 (along F_*X), and J by its gradient along F_*X.  With the
    projector P onto the range, phi = P J A and omega = (I - P) J A, so
    d phi = dP J A + P d(J A) and Q = adjoint phi.  The Christoffel terms then
    turn the plain derivatives into covariant ones.
    """
    J = _require_complex_structure(frame)
    Xv = np.asarray(X, dtype=float)
    A = frame.jacobian
    fx = A @ Xv
    dA = frame.hessian @ Xv
    dG1 = metric_derivative(frame.g_source.matrix, frame.gamma_source, Xv)
    dG2 = metric_derivative(frame.g_target.matrix, frame.gamma_target, fx)
    dJ = np.einsum("cab,c->ab", frame.complex_structure_grad, fx)
    P, dP = range_projector_derivative(A, dA, frame.split, dG2)
    JA = J @ A
    dJA = dJ @ A + J @ dA
    phi = P @ JA
    d_phi = dP @ JA + P @ dJA
    adjoint = frame.adjoint()
    d_adjoint = metric_adjoint_derivative(A, dA, frame.g_source, dG1,
                                          frame.g_target, dG2)
    target_connection = np.einsum("gab,a->gb", frame.gamma_target, fx)
    source_connection = np.einsum("kij,i->kj", frame.gamma_source, Xv)
    return SectionDerivatives(
        phi=d_phi + target_connection @ phi,
        omega=dJA - d_phi + target_connection @ (JA - phi),
        q=d_adjoint @ phi + adjoint @ d_phi + source_connection @ adjoint @ phi)


def omega_parallel_defect(spec: MapSpec, p, X, Y,
                          rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Covariant derivative of the omega operator, as a normal vector.

    Measures nabla^perp_X (omega F_*Y) - omega F_*(nabla_X Y) with Y extended
    by constant coefficients.  Zero everywhere means omega is parallel.
    """
    frame = point_frame(spec, p, rank_tol)
    return omega_defect_from_frame(frame, X, Y)


def omega_defect_from_frame(frame: PointFrame, X, Y,
                            derivatives: Optional[SectionDerivatives] = None
                            ) -> np.ndarray:
    """omega_parallel_defect on a built frame; pass section_derivatives(frame,
    X) as ``derivatives`` to reuse it across several Y."""
    if derivatives is None:
        derivatives = section_derivatives(frame, X)
    Yv = np.asarray(Y, dtype=float)
    nabla_perp = normal_part(frame, derivatives.omega @ Yv)
    _, omega_nabla = phi_omega_from_frame(frame, frame.covariant_source(X, Yv))
    return nabla_perp - omega_nabla


def omega_defect_algebraic(frame: PointFrame, X, Y) -> np.ndarray:
    """Closed form of the omega defect: C(sff(X, Y)) - sff(X, QY).

    Valid when the target structure is parallel; it uses only the second
    fundamental form, so it cross-checks the derivative-based defect.
    """
    J = _require_complex_structure(frame)
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
    return phi_defect_from_frame(frame, X, Y)


def phi_defect_from_frame(frame: PointFrame, X, Y,
                          derivatives: Optional[SectionDerivatives] = None
                          ) -> np.ndarray:
    """phi_parallel_defect on a built frame; ``derivatives`` as in
    omega_defect_from_frame."""
    if derivatives is None:
        derivatives = section_derivatives(frame, X)
    Yv = np.asarray(Y, dtype=float)
    full = derivatives.phi @ Yv
    phi_nabla, _ = phi_omega_from_frame(frame, frame.covariant_source(X, Yv))
    return full - phi_nabla - frame.sff_value(X, q_apply(frame, Yv))


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


def classify_slant(spec: MapSpec, points, dirs_per_point: int = 6,
                   angle_tol: float = DEFAULT_ANGLE_TOL,
                   tol: float = DEFAULT_CHECK_TOL,
                   seed: int = 42,
                   rank_tol: float = DEFAULT_RANK_TOL) -> SlantReport:
    """Sample the slant angle over points and directions and classify the map.

    Fills the angle statistics, the proportionality constants fitted from
    phi^2 and Q^2, the parallelism defects of omega and phi, and the
    pseudo-horizontally-weakly-conformal / pseudo-homothetic flags.
    """
    riemannian = is_riemannian_map(spec, points, tol, rank_tol)
    if not riemannian.passed:
        return SlantReport(NOT_RIEMANNIAN, angle_tol,
                           witness=riemannian.witness,
                           rank=riemannian.detail.get("rank"))

    rng = np.random.default_rng(seed)
    frames = [point_frame(spec, p, rank_tol) for p in points]
    rank = frames[0].rank

    angles = []
    point_angles = []
    witness = None
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
    _phwc_flags(report, spec, frames, tol, rank_tol)
    return report


def _fit_lambda(report: SlantReport, frames, rng, dirs_per_point: int) -> None:
    numerator = denominator = 0.0
    samples = []
    for frame in frames:
        for X in _horizontal_directions(frame, rng, dirs_per_point):
            fx = frame.pushforward(X)
            phi1, _ = phi_omega_from_frame(frame, X)
            J = frame.complex_structure
            phi2 = tangential_part(frame, J @ phi1)
            numerator += frame.g_target.inner(phi2, fx)
            denominator += frame.g_target.inner(fx, fx)
            samples.append((frame, phi2, fx))
    lam = numerator / denominator
    residual = max(frame.g_target.norm(phi2 - lam * fx)
                   for frame, phi2, fx in samples)
    report.lambda_estimate = float(lam)
    report.lambda_residual = float(residual)


def _fit_mu(report: SlantReport, frames) -> None:
    numerator = denominator = 0.0
    residual = 0.0
    squares = []
    for frame in frames:
        q = q_matrix(frame)
        q2 = q @ q
        squares.append(q2)
        numerator += np.trace(q2)
        denominator += q2.shape[0]
    mu = numerator / denominator
    for q2 in squares:
        residual = max(residual, float(np.abs(q2 - mu * np.eye(q2.shape[0])).max()))
    report.mu_estimate = float(mu)
    report.mu_residual = float(residual)


def _parallelism(report: SlantReport, frames, tol: float) -> None:
    omega_max = phi_max = 0.0
    for frame in frames:
        h = frame.split.horizontal.columns
        for a in range(frame.rank):
            X = h[:, a]
            derivatives = section_derivatives(frame, X)
            for b in range(frame.rank):
                Y = h[:, b]
                omega_max = max(omega_max, frame.g_target.norm(
                    omega_defect_from_frame(frame, X, Y, derivatives)))
                phi_max = max(phi_max, frame.g_target.norm(
                    phi_defect_from_frame(frame, X, Y, derivatives)))
    report.omega_defect = float(omega_max)
    report.omega_parallel = omega_max <= tol
    report.phi_defect = float(phi_max)
    report.phi_parallel = phi_max <= tol


def _phwc_flags(report: SlantReport, spec: MapSpec, frames,
                tol: float, rank_tol: float) -> None:
    if not report.sec_defined:
        return
    sec = 1.0 / math.cos(report.mean_angle)
    worst = 0.0
    for frame in frames:
        jhat = sec * q_matrix(frame)
        r = jhat.shape[0]
        worst = max(worst, float(np.linalg.norm(jhat @ jhat + np.eye(r))))
        worst = max(worst, float(np.linalg.norm(jhat.T @ jhat - np.eye(r))))
    report.phwc_residual = worst
    report.phwc = worst <= tol
    if not report.phwc:
        return
    mixed = 0.0
    for frame in frames:
        h = frame.split.horizontal.columns
        kernel = frame.split.kernel.columns
        for a in range(h.shape[1]):
            for c in range(kernel.shape[1]):
                mixed = max(mixed, frame.g_target.norm(
                    frame.sff_value(h[:, a], kernel[:, c])))
    residual = max(report.phi_defect or 0.0, mixed)
    report.pseudo_homothetic_residual = float(residual)
    report.pseudo_homothetic = residual <= tol


# ---------------------------------------------------------------------------
# Adapted frames

def adapted_frame(spec: MapSpec, p, angle_tol: float = DEFAULT_ANGLE_TOL,
                  rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal horizontal frame of the form {e, sec(theta) Q e, ...}.

    Greedy construction: pick a horizontal unit vector, append its normalized
    Q-partner, re-orthogonalize the remaining horizontal directions, repeat.
    Fails for anti-invariant maps, where Q vanishes.
    """
    frame = point_frame(spec, p, rank_tol)
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
# Check suite built on the classification

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
                                tol: float = 1e-8) -> CheckResult:
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


def check_adapted_frame(spec: MapSpec, points, report: SlantReport,
                        tol: float = 1e-10,
                        rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
    """Gram residual of the greedy adapted frame at every sample point."""
    if not report.sec_defined:
        return CheckResult.skipped(
            "adapted_frame", f"classification is {report.classification}: "
            "sec(angle) construction undefined")
    worst = 0.0
    witness = None
    for p in points:
        frame_cols = adapted_frame(spec, p, report.angle_tol, rank_tol)
        g1 = spec.source.metric_at(p)
        gram = frame_cols.T @ g1.matrix @ frame_cols
        residual = float(np.abs(gram - np.eye(frame_cols.shape[1])).max())
        if residual > worst:
            worst = residual
            witness = {"point": [float(x) for x in p]}
    return CheckResult.from_residual("adapted_frame", worst, tol,
                                     samples=len(points), witness=witness)


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


def check_omega_defect_identity(spec: MapSpec, points,
                                tol: float = 1e-10,
                                rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
    """The omega defect must match its algebraic form C(sff) - sff(., Q.).

    One side differentiates omega(F_*Y) along X exactly (projector and
    complex-structure derivatives plus the normal connection); the other uses
    only the second fundamental form and Q.  The two routes share no
    derivative formula, so agreement validates both.
    """
    worst = 0.0
    witness = None
    for p in points:
        frame = point_frame(spec, p, rank_tol)
        h = frame.split.horizontal.columns
        for a in range(frame.rank):
            X = h[:, a]
            derivatives = section_derivatives(frame, X)
            for b in range(frame.rank):
                Y = h[:, b]
                measured = omega_defect_from_frame(frame, X, Y, derivatives)
                algebraic = omega_defect_algebraic(frame, X, Y)
                residual = frame.g_target.norm(measured - algebraic)
                if residual > worst:
                    worst = residual
                    witness = {"point": [float(x) for x in p], "pair": [a, b]}
    return CheckResult.from_residual("omega_defect_identity", worst, tol,
                                     samples=len(points), witness=witness)


def check_sff_q_scaling(spec: MapSpec, points, report: SlantReport,
                        tol: float = DEFAULT_CHECK_TOL,
                        rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
    """With omega parallel, sff(QX, QY) = -cos^2(theta) sff(X, Y)."""
    if not report.is_slant:
        return CheckResult.skipped("sff_q_scaling",
                                   f"precondition unmet: classification is "
                                   f"{report.classification}")
    if not report.omega_parallel:
        return CheckResult.skipped("sff_q_scaling",
                                   "precondition unmet: omega is not parallel")
    factor = -math.cos(report.mean_angle) ** 2
    worst = 0.0
    witness = None
    for p in points:
        frame = point_frame(spec, p, rank_tol)
        h = frame.split.horizontal.columns
        for a in range(frame.rank):
            for b in range(frame.rank):
                X, Y = h[:, a], h[:, b]
                qx, qy = q_apply(frame, X), q_apply(frame, Y)
                residual = frame.g_target.norm(
                    frame.sff_value(qx, qy) - factor * frame.sff_value(X, Y))
                if residual > worst:
                    worst = residual
                    witness = {"point": [float(x) for x in p], "pair": [a, b]}
    return CheckResult.from_residual("sff_q_scaling", worst, tol,
                                     samples=len(points), witness=witness)


def check_harmonic(spec: MapSpec, points, tol: float = DEFAULT_CHECK_TOL,
                   rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
    """Largest tension-field norm over the samples; zero means harmonic."""
    worst = 0.0
    witness = None
    for p in points:
        frame = point_frame(spec, p, rank_tol)
        residual = frame.g_target.norm(tension_from_frame(frame))
        if residual > worst:
            worst = residual
            witness = {"point": [float(x) for x in p]}
    return CheckResult.from_residual("harmonic", worst, tol,
                                     samples=len(points), witness=witness)


def check_minimal_fibers(spec: MapSpec, points, tol: float = DEFAULT_CHECK_TOL,
                         rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
    """Largest fiber mean-curvature norm; zero means minimal fibers."""
    worst = 0.0
    witness = None
    for p in points:
        frame = point_frame(spec, p, rank_tol)
        if frame.split.kernel.dim == 0:
            return CheckResult.skipped("minimal_fibers",
                                       "map is an immersion: the kernel is trivial")
        residual = frame.g_target.norm(fiber_mean_curvature_from_frame(frame))
        if residual > worst:
            worst = residual
            witness = {"point": [float(x) for x in p]}
    return CheckResult.from_residual("minimal_fibers", worst, tol,
                                     samples=len(points), witness=witness)


def check_harmonic_minimal_equivalence(spec: MapSpec, points,
                                       report: SlantReport,
                                       tol: float = DEFAULT_CHECK_TOL,
                                       rank_tol: float = DEFAULT_RANK_TOL
                                       ) -> CheckResult:
    """With omega parallel, harmonicity and minimal fibers hold or fail together."""
    if not report.is_slant:
        return CheckResult.skipped("harmonic_minimal_equivalence",
                                   f"precondition unmet: classification is "
                                   f"{report.classification}")
    if not report.omega_parallel:
        return CheckResult.skipped("harmonic_minimal_equivalence",
                                   "precondition unmet: omega is not parallel")
    harmonic = check_harmonic(spec, points, tol, rank_tol)
    fibers = check_minimal_fibers(spec, points, tol, rank_tol)
    if fibers.status == "skipped":
        return CheckResult.skipped("harmonic_minimal_equivalence", fibers.reason)
    agree = harmonic.passed == fibers.passed
    return CheckResult(
        "harmonic_minimal_equivalence", "pass" if agree else "fail",
        residual=abs(harmonic.residual - fibers.residual), tol=tol,
        samples=len(points),
        detail={"tension_residual": harmonic.residual,
                "fiber_residual": fibers.residual,
                "harmonic": harmonic.passed, "minimal_fibers": fibers.passed})


def _condition_three_residual(frame: PointFrame) -> float:
    """Pairing identity linking the shape operator, B/C parts and the normal
    connection on horizontal pairs against every normal frame vector."""
    _require_complex_structure(frame)
    h = frame.split.horizontal.columns
    perp = frame.split.range_perp.columns
    if perp.shape[1] == 0 or frame.rank == 0:
        return 0.0
    g2 = frame.g_target
    pushed = frame.jacobian @ h
    worst = 0.0
    for a in range(frame.rank):
        X = h[:, a]
        d_omega = section_derivatives(frame, X).omega
        for b in range(frame.rank):
            Y = h[:, b]
            _, omega_y = phi_omega_from_frame(frame, Y)
            qy = q_apply(frame, Y)
            nperp_y = normal_part(frame, d_omega @ Y)
            nperp_qy = normal_part(frame, d_omega @ qy)
            sff_row = [frame.sff_value(X, h[:, c]) for c in range(frame.rank)]
            for v_idx in range(perp.shape[1]):
                V = perp[:, v_idx]
                bv, cv = bc_from_frame(frame, V)
                lhs = sum(g2.inner(bv, pushed[:, c]) * g2.inner(omega_y, sff_row[c])
                          for c in range(frame.rank))
                rhs = g2.inner(nperp_y, cv) - g2.inner(nperp_qy, V)
                worst = max(worst, abs(lhs - rhs))
    return worst


def check_totally_geodesic(spec: MapSpec, points, tol: float = DEFAULT_CHECK_TOL,
                           rank_tol: float = DEFAULT_RANK_TOL,
                           condition_three: bool = True) -> CheckResult:
    """Vanishing of the second fundamental form, with a per-condition breakdown.

    Reports the global sff maximum together with the three structural
    conditions: totally geodesic fibers, totally geodesic horizontal
    distribution, and the shape-operator pairing identity on normal vectors.
    """
    global_max = fiber_max = horizontal_max = third_max = 0.0
    witness = None
    has_j = spec.target.complex_structure is not None
    for p in points:
        frame = point_frame(spec, p, rank_tol)
        value = sff_global_max(frame)
        if value > global_max:
            global_max = value
            witness = {"point": [float(x) for x in p]}
        fiber_max = max(fiber_max, fiber_geodesy_residual(frame))
        horizontal_max = max(horizontal_max, horizontal_geodesy_residual(frame))
        if condition_three and has_j:
            third_max = max(third_max,
                            _condition_three_residual(frame))
    detail = {
        "fiber_residual": fiber_max,
        "fibers_totally_geodesic": fiber_max <= tol,
        "horizontal_residual": horizontal_max,
        "horizontal_totally_geodesic": horizontal_max <= tol,
    }
    if condition_three and has_j:
        detail["pairing_residual"] = third_max
        detail["pairing_holds"] = third_max <= tol
        joint = (fiber_max <= tol and horizontal_max <= tol and third_max <= tol)
        detail["conditions_agree"] = joint == (global_max <= tol)
    return CheckResult.from_residual("totally_geodesic", global_max, tol,
                                     samples=len(points), witness=witness,
                                     detail=detail)


def check_phwc(spec: MapSpec, points, report: SlantReport,
               tol: float = DEFAULT_CHECK_TOL,
               rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
    """Pseudo horizontal weak conformality: sec(theta) Q is a compatible
    complex structure for the horizontal metric."""
    if not report.is_slant:
        return CheckResult.skipped("phwc",
                                   f"classification is {report.classification}")
    if not report.sec_defined:
        return CheckResult.skipped(
            "phwc", "the induced horizontal structure is undefined at angle pi/2")
    sec = 1.0 / math.cos(report.mean_angle)
    square_max = hermitian_max = 0.0
    witness = None
    for p in points:
        frame = point_frame(spec, p, rank_tol)
        jhat = sec * q_matrix(frame)
        r = jhat.shape[0]
        square = float(np.linalg.norm(jhat @ jhat + np.eye(r)))
        hermitian = float(np.linalg.norm(jhat.T @ jhat - np.eye(r)))
        if max(square, hermitian) > max(square_max, hermitian_max):
            witness = {"point": [float(x) for x in p]}
        square_max = max(square_max, square)
        hermitian_max = max(hermitian_max, hermitian)
    residual = max(square_max, hermitian_max)
    return CheckResult.from_residual(
        "phwc", residual, tol, samples=len(points), witness=witness,
        detail={"square_residual": square_max,
                "hermitian_residual": hermitian_max})


def check_pseudo_homothetic(spec: MapSpec, points, report: SlantReport,
                            tol: float = DEFAULT_CHECK_TOL,
                            rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
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
    phi_max = mixed_max = frame_deriv_max = vertical_pair_max = 0.0
    witness = None
    for p in points:
        frame = point_frame(spec, p, rank_tol)
        h = frame.split.horizontal.columns
        kernel = frame.split.kernel.columns
        for a in range(frame.rank):
            X = h[:, a]
            derivatives = section_derivatives(frame, X)
            for c in range(kernel.shape[1]):
                value = frame.g_target.norm(frame.sff_value(X, kernel[:, c]))
                if value > mixed_max:
                    mixed_max = value
                    witness = {"point": [float(x) for x in p],
                               "horizontal": a, "vertical": c}
            for b in range(frame.rank):
                Y = h[:, b]
                defect = phi_defect_from_frame(frame, X, Y, derivatives)
                phi_max = max(phi_max, frame.g_target.norm(defect))
                nabla_qy = derivatives.q @ Y
                q_nabla = q_apply(frame, frame.covariant_source(X, Y))
                jhat_deriv = sec * (nabla_qy - q_nabla)
                frame_deriv_max = max(frame_deriv_max, frame.g_target.norm(
                    frame.pushforward(jhat_deriv) - sec * defect))
                phi_y, _ = phi_omega_from_frame(frame, Y)
                for c in range(kernel.shape[1]):
                    U = kernel[:, c]
                    lhs = frame.g_source.inner(jhat_deriv, U)
                    rhs = sec * frame.g_target.inner(phi_y,
                                                     frame.sff_value(X, U))
                    vertical_pair_max = max(vertical_pair_max, abs(lhs - rhs))
    residual = max(phi_max, mixed_max)
    return CheckResult.from_residual(
        "pseudo_homothetic", residual, tol, samples=len(points),
        witness=witness,
        detail={"phi_defect": phi_max, "mixed_sff": mixed_max,
                "structure_derivative_residual": frame_deriv_max,
                "vertical_pairing_residual": vertical_pair_max})
