"""Slant structure of Riemannian maps into almost Hermitian targets.

For a horizontal vector X the image J F_*X splits into a tangential part
(phi, inside the range of F_*) and a normal part (omega); vectors normal to
the range split the same way into B (tangential) and C (normal).  The
composite Q = adjoint o phi o F_* acts on the horizontal space and its square
is -cos^2(theta) times the identity exactly when the angle theta between
J F_*X and the range is constant.  Each pointwise quantity has one route,
as components in the orthonormal frames B1 = [h | k] and B2 = [R | N] of
the split: phi and omega are the rows of ``FrameStack.adapted_j_pushforward``,
B and C the columns of ``j_blocks`` on N, Q is ``adapted_q``, and the
covariant derivatives are ``horizontal_derivatives``
(``maps.section_derivatives`` along other directions).  A member serves a
stack and its rows (the ``maps.PointFrame`` of ``point_frame``) alike; this
module classifies a map from those members and runs the checks built on the
classification, reading one ``Sample``.  A check hands ``Sample.check`` (or
``Sample.reduce``) its residuals as bare functions of a stack, keyed by the
one sample-level value they read.  Each residual entry is a slice, trace or
small block product of the adapted members: adjoints are transposes and no
metric enters.  A check assumes its preconditions (a Riemannian map, a slant
angle, sec(theta) defined, omega parallel, PHWC): ``report.CHECKS`` states
them and skips the check where they fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import ClassVar, Optional

import numpy as np

from .charts import structure_residuals
from .linalg import lift
from .maps import (ADAPTED_FRAME_FAILURES, MapDefinitionError, MapSpec,
                   PointFrame, PointOperators, Sample, fiber_trace,
                   gram_residual, is_riemannian_map, point_frame)
from .result import (DEFAULT_ANGLE_TOL, DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL,
                     EXACT_IDENTITY_TOL, CheckResult, library_setting, record)

INVARIANT = "invariant"
ANTI_INVARIANT = "anti_invariant"
PROPER_SLANT = "proper_slant"
NOT_SLANT = "not_slant"
NOT_RIEMANNIAN = "not_riemannian"
SLANT_CLASSES = (INVARIANT, ANTI_INVARIANT, PROPER_SLANT)


# Wrappers over PointFrame members, which perfbench/tracer.py traces by name.

def slant_angle(spec: MapSpec, p, X, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Angle in [0, pi/2] between J F_*X and the range of F_* at p."""
    return point_frame(spec, p, rank_tol).slant_angle(X)


def q_operator(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    return point_frame(spec, p, rank_tol).q


def q_matrix(frame: PointFrame) -> np.ndarray:
    """Matrix of Q in the orthonormal horizontal frame: ``frame.q``."""
    return frame.q


def point_operators(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL,
                    theta: Optional[float] = None) -> PointOperators:
    return point_frame(spec, p, rank_tol).operators(theta)


def adapted_frame(spec: MapSpec, p, angle_tol: float = DEFAULT_ANGLE_TOL,
                  rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal horizontal frame {e, sec(theta) Q e, ...} at p."""
    return point_frame(spec, p, rank_tol).adapted_frame(angle_tol)


# ---------------------------------------------------------------------------
# Parallelism defects

def omega_defect_algebraic(frames) -> np.ndarray:
    """C(sff(h_a, h_b)) - sff(h_a, Q h_b) at [..., a, :, b] in B2: the
    closed form of the omega defect when the target structure is parallel.
    It reads only the sff, so it cross-checks the derivative-based defect."""
    r, S = frames.rank, frames.horizontal_sff
    out = -(S @ lift(frames.adapted_q[..., :r], S.ndim))
    out[..., r:, :] += lift(frames.j_blocks[..., r:, r:], S.ndim) @ S[..., r:, :r]
    return out


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
    # the least and the largest angle at each sample point, (N, 2) in the
    # sample's order: not a field, so the report does not carry it
    point_angles: ClassVar[np.ndarray] = np.empty((0, 2))

    @property
    def is_slant(self) -> bool:
        return self.classification in SLANT_CLASSES

    @property
    def sec_defined(self) -> bool:
        return self.classification in (INVARIANT, PROPER_SLANT)

    def to_dict(self) -> dict:
        return record(self)


def classify_slant(sample: Sample, angle_tol: float = DEFAULT_ANGLE_TOL,
                   tol: float = DEFAULT_CHECK_TOL,
                   riemannian: Optional[CheckResult] = None) -> SlantReport:
    """Classify the map from the exact range of the slant angle at each point.

    Fills the angle statistics (over the least and largest angle of every
    point), the proportionality constants fitted from phi^2 and Q^2 and the
    parallelism defects of omega and phi; ``report.Analysis`` copies in the
    outcomes of the phwc and pseudo_homothetic checks.  ``riemannian`` is
    the riemannian_map result for the same sample and tolerance, when the
    caller already has it.  0 < angle_tol < pi/4, as the loader requires.
    ``Sample.keep`` holds the angle statistics and fits per sample size.
    """
    angle_tol = library_setting("angle_tol", angle_tol, "angle tolerance")
    if not len(sample):
        raise ValueError("the sample has no points to classify")
    stacks = list(sample.stacks())  # a failed build raises as the Riemannian test would
    if riemannian is None:
        riemannian = is_riemannian_map(sample, tol)
    if not riemannian.passed:
        return SlantReport(NOT_RIEMANNIAN, angle_tol,
                           witness=riemannian.witness,
                           rank=riemannian.detail.get("rank"))

    rank, count = stacks[0][1].rank, len(sample)
    angles, mean_angle, max_dev, worst, lam, mu = sample.keep(
        stacks[0][1], "statistics", count, lambda: _statistics(stacks, count, rank))
    witness = {"point": sample.points[worst // 2].tolist(),
               "angle": float(angles.flat[worst])}

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
                         witness=witness if classification == NOT_SLANT else None)
    report.point_angles = angles
    (report.lambda_residual, report.mu_residual, report.omega_defect,
     report.phi_defect), _ = sample.reduce(
        "slant_classification", lambda s: s.squares[0] - lam * np.eye(rank),
        lambda s: s.squares[1] - mu * np.eye(rank),
        lambda s: s.horizontal_derivatives.omega_defect,
        lambda s: s.horizontal_derivatives.phi_defect, key=(lam, mu))
    report.lambda_estimate, report.mu_estimate = lam, mu
    report.omega_parallel = report.omega_defect <= tol
    report.phi_parallel = report.phi_defect <= tol
    return report


def _statistics(stacks, count: int, rank: int) -> tuple:
    """The least and largest angle at each of the count points (count, 2),
    their mean, largest deviation from it and its flat index, and lambda and
    mu, the fits of phi^2 and Q^2 to c I, c the mean trace (which blocks do
    not change): where one frame stands for every row, the count's alone."""
    angles, traces = np.empty((count, 2)), np.empty((2, count))
    for rows, s in stacks:
        angles[rows] = s.angle_ranges
        traces[:, rows] = s.squares[2]
    mean_angle = float(np.mean(angles))
    deviations = np.abs(angles - mean_angle)
    return (angles, mean_angle, float(deviations.max()), int(np.argmax(deviations)),
            *(float(t.sum() / (count * rank)) for t in traces))


def mixed_sff(frames) -> np.ndarray:
    """sff(h_a, u_c) over horizontal h_a and vertical u_c, at [..., :, a, c]."""
    return frames.adapted_sff[..., :frames.rank, frames.rank:]


# ---------------------------------------------------------------------------
# Check suite built on the classification.  A check that reads frames takes
# the run's Sample.

def check_phi_squared_scaling(report: SlantReport,
                              tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """phi^2 acts as a constant lambda in [-1, 0] on the range iff the map is slant.

    The detail block cross-checks the fitted constant against the angle
    ranges: for a slant map lambda must equal -cos^2(mean angle).
    """
    lam, residual = report.lambda_estimate, report.lambda_residual
    in_range = -1.0 - tol <= lam <= tol
    status = "pass" if residual <= tol and in_range else "fail"
    gap = abs(lam + math.cos(report.mean_angle) ** 2)
    return CheckResult("phi_squared_scaling", status, residual=residual, tol=tol,
                       detail={"lambda": lam, "lambda_in_range": in_range,
                               "angle_gap": gap})


def check_q_squared_scaling(report: SlantReport,
                            tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Q^2 acts as a constant mu in [-1, 0] on the horizontal space iff slant."""
    mu, residual = report.mu_estimate, report.mu_residual
    in_range = -1.0 - tol <= mu <= tol
    status = "pass" if residual <= tol and in_range else "fail"
    return CheckResult("q_squared_scaling", status, residual=residual, tol=tol,
                       detail={"mu": mu, "mu_in_range": in_range})


def check_lambda_mu_consistency(report: SlantReport,
                                tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """For slant maps both fitted constants equal -cos^2(mean angle)."""
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
    """Gram residual of the greedy adapted frame at every sample point; a
    frame that does not close raises at the first point of the first stack
    where it fails, the first such sample point at a constant rank."""
    def residual(s):
        columns, failure = s.adapted_frames(report.angle_tol)
        if failure.any():
            i = int(np.argmax(failure > 0))
            raise ValueError(f"{ADAPTED_FRAME_FAILURES[failure[i] - 1]} at "
                             f"point {sample.point(s, i).tolist()}")
        return gram_residual(columns)

    return sample.check("adapted_frame", tol, residual, key=report.angle_tol)


def check_omega_parallel(report: SlantReport,
                         tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    return CheckResult.from_residual("omega_parallel", report.omega_defect, tol)


def check_phi_parallel(report: SlantReport,
                       tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    return CheckResult.from_residual("phi_parallel", report.phi_defect, tol)


def check_omega_defect_identity(sample: Sample,
                                tol: float = EXACT_IDENTITY_TOL) -> CheckResult:
    """The omega defect must match its algebraic form C(sff) - sff(., Q.).

    Both sides are closed forms in the second fundamental form.  One is the
    normal part of nabla omega from ``horizontal_derivatives``, which also
    reads nabla J, the projector derivative and Sigma^-1; the other reads
    only sff, J and Q at the point and holds when nabla J = 0.
    Agreement on a Kaehler target validates the derivative route.
    """
    def residuals(s):
        algebraic = omega_defect_algebraic(s)
        algebraic[..., s.rank:, :] -= s.horizontal_derivatives.omega_defect
        return algebraic

    return sample.check("omega_defect_identity", tol, residuals)


def check_sff_q_scaling(sample: Sample, report: SlantReport,
                        tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """With omega parallel, sff(QX, QY) = -cos^2(theta) sff(X, Y)."""
    factor = -math.cos(report.mean_angle) ** 2

    def residuals(s):
        r, S = s.rank, s.adapted_sff
        qh = lift(s.adapted_q[..., :r], 4)
        return np.swapaxes(qh, -1, -2) @ S @ qh - factor * S[..., :r, :r]

    return sample.check("sff_q_scaling", tol, residuals, key=factor)


def check_harmonic(sample: Sample, tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Largest tension-field norm over the samples; zero means harmonic."""
    return sample.check("harmonic", tol,
                        lambda s: np.trace(s.adapted_sff, axis1=-2, axis2=-1))


def check_minimal_fibers(sample: Sample,
                         tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Largest fiber mean-curvature norm; zero means minimal fibers."""
    try:
        return sample.check("minimal_fibers", tol, fiber_trace)
    except MapDefinitionError as exc:  # an immersion has no fibers
        return CheckResult.skipped("minimal_fibers", str(exc))


def check_harmonic_minimal_equivalence(harmonic: CheckResult,
                                       fibers: CheckResult,
                                       tol: float = DEFAULT_CHECK_TOL
                                       ) -> CheckResult:
    """With omega parallel, harmonicity and minimal fibers hold or fail
    together: ``harmonic`` and ``fibers`` are the harmonic and minimal_fibers
    results of one sample and tolerance."""
    agree = harmonic.passed == fibers.passed
    return CheckResult(
        "harmonic_minimal_equivalence", "pass" if agree else "fail",
        residual=abs(harmonic.residual - fibers.residual), tol=tol,
        samples=harmonic.samples,
        detail={"tension_residual": harmonic.residual,
                "fiber_residual": fibers.residual,
                "harmonic": harmonic.passed, "minimal_fibers": fibers.passed})


def _condition_three_residual(frames) -> np.ndarray:
    """Pairing identity linking the shape operator, B/C parts and the normal
    connection on horizontal pairs against every normal frame vector:
    sum_c g2(BV, F_*h_c) g2(omega F_*Y, sff(X, h_c))
        = g2(nabla^perp_X omega F_*Y, CV) - g2(nabla^perp_X omega F_*QY, V);
    the mismatches at [:, a, v, b] at each point of a FrameStack."""
    r, m = frames.rank, frames.jacobian.shape[-2]
    if m == r or r == 0:
        return np.zeros(len(frames))
    J, JA = frames.j_blocks, frames.adapted_j_pushforward
    omega_h = JA[:, r:, :r]                            # omega F_*h_b
    # nabla^perp_{h_a}(omega F_*h_b) at [:, a, :, b]: omega is normal-valued
    d_omega = frames.horizontal_derivatives.omega_defect
    if frames.gamma_source is not None:  # else the connection term is zero
        d_omega = d_omega + lift(JA[:, r:], 4) @ frames.horizontal_connection
    paired = np.swapaxes(J[:, :r, r:], -1, -2) @ frames.adapted_jacobian[:, :r, :r]
    # sff(h_a, h_c) on the normal frame, at [:, a, c, :]
    sff_h = np.moveaxis(frames.adapted_sff[:, r:, :r, :r], 1, -1)
    lhs = lift(paired, 4) @ sff_h @ lift(omega_h, 4)  # (N, a, v, b)
    # Q h_b = sum_c q[c, b] h_c
    rhs = (lift(np.swapaxes(J[:, r:, r:], -1, -2), 4) @ d_omega
           - d_omega @ lift(frames.q, 4))
    return lhs - rhs


def check_totally_geodesic(sample: Sample,
                           tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Vanishing of the second fundamental form, with the three structural
    conditions: totally geodesic fibers, totally geodesic horizontal
    distribution, and the shape-operator pairing identity on normal vectors.
    """
    def detail(global_max, fiber_max, horizontal_max, *third):
        detail = {"fiber_residual": fiber_max,
                  "fibers_totally_geodesic": fiber_max <= tol,
                  "horizontal_residual": horizontal_max,
                  "horizontal_totally_geodesic": horizontal_max <= tol}
        for pairing in third:  # the pairing identity, on a target with J
            joint = max(fiber_max, horizontal_max, pairing) <= tol
            detail.update(pairing_residual=pairing, pairing_holds=pairing <= tol,
                          conditions_agree=joint == (global_max <= tol))
        return detail

    has_j = sample.spec.target.complex_structure is not None
    return sample.check(
        "totally_geodesic", tol, lambda s: s.adapted_sff,
        lambda s: s.adapted_sff[..., s.rank:, s.rank:],
        # g1(nabla_X Y, W) over horizontal X, Y and vertical W
        lambda s: s.horizontal_connection[..., s.rank:, :],
        *[_condition_three_residual] * has_j, detail=detail)


def check_phwc(sample: Sample, report: SlantReport,
               tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Pseudo horizontal weak conformality: sec(theta) Q is a compatible
    complex structure for the horizontal metric, I in the adapted frame."""
    sec = 1.0 / math.cos(report.mean_angle)
    residuals = cache(lambda s: structure_residuals(sec * s.q))
    return sample.check(
        "phwc", tol, residuals, lambda s: residuals(s)[:, 0],
        lambda s: residuals(s)[:, 1], key=sec,
        detail=lambda _, square, hermitian: {
            "square_residual": square, "hermitian_residual": hermitian})


def check_pseudo_homothetic(sample: Sample, report: SlantReport,
                            tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Pseudo homothety: phi parallel and no mixed horizontal-vertical sff.

    Also cross-checks the induced-structure derivative along both available
    routes: pushing sec(theta)(nabla_X(QY) - Q nabla_X Y) forward must match
    sec(theta) times the phi defect, and its pairing with vertical vectors
    must match sec(theta) g2(phi F_*Y, sff(X, U)).
    """
    sec = 1.0 / math.cos(report.mean_angle)

    def jhat_derivative(s):
        """[:, a, :, b]: sec(theta) (nabla_{h_a}(Q h_b) - Q nabla_{h_a} h_b)"""
        return sec * s.horizontal_derivatives.q

    def vertical_pairing(s):
        r = s.rank
        lhs = np.swapaxes(jhat_derivative(s), -1, -2)[..., r:]
        phi_h = np.swapaxes(s.adapted_j_pushforward[:, :r, :r], -1, -2)
        return lhs - sec * lift(phi_h, 4) @ s.horizontal_sff[..., :r, r:]

    (mixed_max, frame_deriv_max, vertical_pair_max), witness = sample.reduce(
        "pseudo_homothetic", mixed_sff,
        lambda s: (lift(s.adapted_jacobian, 4) @ jhat_derivative(s)
                   - sec * s.horizontal_derivatives.phi_defect),
        vertical_pairing, key=sec)
    # phi parallelism was measured, over the same pairs, by the classification
    return CheckResult.from_residual(
        "pseudo_homothetic", max(report.phi_defect, mixed_max), tol, len(sample),
        witness, {"phi_defect": report.phi_defect, "mixed_sff": mixed_max,
                  "structure_derivative_residual": frame_deriv_max,
                  "vertical_pairing_residual": vertical_pair_max})
