"""Riemannian-map analysis: frames, splittings, second fundamental form.

The second fundamental form is evaluated through its closed tensorial
coordinate formula

    (sff)^g_ij = d_i d_j F^g - Gamma1^k_ij d_k F^g
                 + Gamma2^g_ab(F(p)) d_i F^a d_j F^b,

so no vector-field extensions enter; jets supply every derivative exactly.

A ``PointFrame`` holds what is known at one point (the adjoint, Q and the
section derivatives are computed on first use); a ``Sample`` is the analysis
context of one run, whose frames are built once and read by every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .charts import ChartError, ChartManifold, christoffel, metric_derivative
from .expressions import Expression, eval_jet2, parse_expression
from .linalg import (InnerProduct, TangentSplit, metric_adjoint,
                     metric_adjoint_derivative, project,
                     range_projector_derivative, split_tangent)
from .result import DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL, CheckResult


class MapDefinitionError(ValueError):
    """Raised for maps whose components do not fit the charts."""


@dataclass(frozen=True)
class MapSpec:
    """Smooth map between charts, given by target-component expressions."""

    source: ChartManifold
    target: ChartManifold
    components: tuple
    box: tuple
    name: str = ""

    @staticmethod
    def create(source: ChartManifold, target: ChartManifold,
               components: Sequence, box: Optional[Sequence] = None,
               name: str = "") -> "MapSpec":
        parsed = tuple(
            c if isinstance(c, Expression) else parse_expression(str(c), source.dim)
            for c in components)
        if len(parsed) != target.dim:
            raise MapDefinitionError(
                f"{len(parsed)} components for a {target.dim}-dimensional target")
        for c in parsed:
            if c.dim != source.dim:
                raise MapDefinitionError(
                    "component expressions must use the source coordinates")
        if box is None:
            box = [(-1.0, 1.0)] * source.dim
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != source.dim or any(hi <= lo for lo, hi in box):
            raise MapDefinitionError("domain box must give a range per source coordinate")
        return MapSpec(source, target, parsed, box, name)


def map_point(spec: MapSpec, p) -> np.ndarray:
    return np.array([eval_jet2(c, p).value for c in spec.components])


def differential(spec: MapSpec, p) -> np.ndarray:
    """Jacobian matrix, entry (g, i) = d_i F^g at p."""
    return np.array([eval_jet2(c, p).grad for c in spec.components])


@dataclass
class PointFrame:
    """Everything the per-point analysis needs, computed once."""

    point: np.ndarray
    image: np.ndarray
    jacobian: np.ndarray
    g_source: InnerProduct
    g_target: InnerProduct
    split: TangentSplit
    gamma_source: np.ndarray
    gamma_target: np.ndarray
    sff: np.ndarray  # (m, n, n)
    complex_structure: Optional[np.ndarray]
    hessian: np.ndarray  # (m, n, n), d_i d_j F^g
    target: ChartManifold

    @property
    def rank(self) -> int:
        return self.split.rank

    @cached_property
    def complex_structure_grad(self) -> np.ndarray:
        """dJ[c, a, b] = d_c J^a_b at F(p).  Only the slant derivatives read
        it, so it is evaluated on first use, not with the frame."""
        return self.target.complex_structure_jet(self.image)[1]

    @cached_property
    def adjoint(self) -> np.ndarray:
        """Metric adjoint of F_*, solved once per frame."""
        return metric_adjoint(self.jacobian, self.g_source, self.g_target)

    @cached_property
    def q(self) -> np.ndarray:
        """Matrix of Q in the orthonormal horizontal frame; skew-symmetric."""
        h = self.split.horizontal.columns
        out = np.empty((self.rank, self.rank))
        for a in range(self.rank):
            out[:, a] = h.T @ self.g_source.matrix @ q_apply(self, h[:, a])
        return out

    @cached_property
    def horizontal_derivatives(self) -> list:
        """section_derivatives along each vector h_a of the horizontal frame."""
        h = self.split.horizontal.columns
        return [section_derivatives(self, h[:, a]) for a in range(self.rank)]

    def pushforward(self, X) -> np.ndarray:
        return self.jacobian @ np.asarray(X, dtype=float)

    def sff_value(self, X, Y) -> np.ndarray:
        return np.einsum("gij,i,j->g", self.sff, np.asarray(X, float),
                         np.asarray(Y, float))

    def covariant_source(self, X, Y) -> np.ndarray:
        """Source connection applied to constant-coefficient extensions of X, Y."""
        return np.einsum("kij,i,j->k", self.gamma_source, np.asarray(X, float),
                         np.asarray(Y, float))


def point_frame(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL) -> PointFrame:
    point = np.asarray(p, dtype=float)
    jets = [eval_jet2(c, point) for c in spec.components]
    image = np.array([j.value for j in jets])
    jac = np.array([j.grad for j in jets])
    hess = np.array([j.hess for j in jets])
    g1 = spec.source.metric_at(point)
    g2 = spec.target.metric_at(image)
    split = split_tangent(jac, g1, g2, rank_tol)
    split.point = point
    gamma1 = christoffel(spec.source, point)
    gamma2 = christoffel(spec.target, image)
    sff = (hess - np.einsum("kij,gk->gij", gamma1, jac)
           + np.einsum("gab,ai,bj->gij", gamma2, jac, jac))
    J = None
    if spec.target.complex_structure is not None:
        J = spec.target.complex_structure_at(image)
    return PointFrame(point, image, jac, g1, g2, split, gamma1, gamma2, sff, J,
                      hess, spec.target)


def second_fundamental_form(spec: MapSpec, p, X, Y,
                            rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Vector in the target tangent space measuring connection mismatch at p."""
    return point_frame(spec, p, rank_tol).sff_value(X, Y)


def tension_field(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Metric trace of the second fundamental form at p."""
    return tension_from_frame(point_frame(spec, p, rank_tol))


def tension_from_frame(frame: PointFrame) -> np.ndarray:
    inverse = np.linalg.inv(frame.g_source.matrix)
    return np.einsum("ij,gij->g", inverse, frame.sff)


def fiber_mean_curvature(spec: MapSpec, p,
                         rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Trace of the second fundamental form over the kernel; zero iff the
    fiber through p is minimal."""
    return fiber_mean_curvature_from_frame(point_frame(spec, p, rank_tol))


def fiber_mean_curvature_from_frame(frame: PointFrame) -> np.ndarray:
    kernel = frame.split.kernel.columns
    if kernel.shape[1] == 0:
        raise MapDefinitionError("map is an immersion: the kernel is trivial")
    return np.einsum("gij,ia,ja->g", frame.sff, kernel, kernel)


def s_v_operator(spec: MapSpec, p, V, tol: float = DEFAULT_CHECK_TOL,
                 rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Shape-operator matrix in the frame of pushed-forward horizontal vectors.

    S[a, b] = g2(V, sff(h_a, h_b)).  V must lie in the orthogonal complement
    of the range; a small stray range component is projected away and the
    norm restored, a large one is an error.
    """
    return s_v_from_frame(point_frame(spec, p, rank_tol), V, tol)


def s_v_from_frame(frame: PointFrame, V, tol: float = DEFAULT_CHECK_TOL) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    g2 = frame.g_target
    norm = g2.norm(V)
    r = frame.rank
    if norm == 0.0:
        return np.zeros((r, r))
    tangential = project(V, frame.split.range)
    if g2.norm(tangential) > tol * norm:
        raise ValueError("vector has a range component beyond tolerance")
    perp = V - tangential
    perp_norm = g2.norm(perp)
    if perp_norm > 0:
        perp = perp * (norm / perp_norm)
    h = frame.split.horizontal.columns
    sff_h = np.einsum("gij,ia,jb->gab", frame.sff, h, h)
    return np.einsum("g,gh,hab->ab", perp, g2.matrix, sff_h)


class Sample:
    """Analysis context of one run: the sample points and one PointFrame per
    point, built on first use and read by every check.  A failed build is kept
    and raised again at the same point, so each check fails where it would."""

    def __init__(self, spec: MapSpec, points,
                 rank_tol: float = DEFAULT_RANK_TOL):
        self.spec = spec
        self.points = list(points)
        self.rank_tol = rank_tol
        self._frames: list = []
        self._failure: Optional[Exception] = None

    @staticmethod
    def of(spec: MapSpec, points, rank_tol: float) -> "Sample":
        """``points`` itself when it is a Sample of this map, else a new one."""
        if not isinstance(points, Sample):
            return Sample(spec, points, rank_tol)
        if points.spec is not spec or points.rank_tol != rank_tol:
            raise ValueError("the sample belongs to another map or rank tolerance")
        return points

    def __len__(self) -> int:
        return len(self.points)

    def frames(self):
        """The frames in point order, each built when first reached."""
        for i, p in enumerate(self.points):
            if i == len(self._frames):
                if self._failure is not None:
                    raise self._failure
                try:
                    self._frames.append(point_frame(self.spec, p, self.rank_tol))
                except Exception as exc:
                    self._failure = exc
                    raise
            yield self._frames[i]

    @cached_property
    def images(self) -> list:
        """F at every point, from the component values alone: no frames."""
        return [map_point(self.spec, p) for p in self.points]


# ---------------------------------------------------------------------------
# Complex-structure parts at one frame and their covariant derivatives

def require_complex_structure(frame: PointFrame) -> np.ndarray:
    if frame.complex_structure is None:
        raise ChartError("target chart has no complex structure")
    return frame.complex_structure


def tangential_part(frame: PointFrame, w) -> np.ndarray:
    return project(w, frame.split.range)


def normal_part(frame: PointFrame, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    return w - project(w, frame.split.range)


def phi_omega_from_frame(frame: PointFrame, X):
    """Split J F_*X into its range part (phi) and normal part (omega)."""
    J = require_complex_structure(frame)
    w = J @ frame.pushforward(X)
    phi = tangential_part(frame, w)
    return phi, w - phi


def q_apply(frame: PointFrame, X) -> np.ndarray:
    """Q X = adjoint(phi(F_* X)), a horizontal vector in the source tangent."""
    phi, _ = phi_omega_from_frame(frame, X)
    return frame.adjoint @ phi


def q_matrix(frame: PointFrame) -> np.ndarray:
    """Matrix of Q in the orthonormal horizontal frame; skew-symmetric."""
    return frame.q


@dataclass
class SectionDerivatives:
    """Covariant derivatives along X of the sections Y -> phi(F_*Y),
    omega(F_*Y) and QY, as matrices acting on constant-coefficient Y."""

    phi: np.ndarray    # (m, n), pullback connection
    omega: np.ndarray  # (m, n), pullback connection
    q: np.ndarray      # (n, n), source connection


def section_derivatives(frame: PointFrame, X) -> SectionDerivatives:
    """Exact derivatives of the phi, omega and Q sections along t -> p + tX,
    with Y extended by constant coefficients.

    Along the curve F_* moves by dA = Hess(F) X, the metrics by dG1 (along X)
    and dG2 (along F_*X), and J by its gradient along F_*X, all read from the
    jets at p.  With the projector P onto the range, phi = P J A and
    omega = (I - P) J A, so d phi = dP J A + P d(J A) and Q = adjoint phi;
    P and the adjoint are differentiated exactly at constant rank.  The
    target (pullback) and source Christoffel terms then turn the plain
    derivatives into covariant ones.
    """
    J = require_complex_structure(frame)
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
    adjoint = frame.adjoint
    d_adjoint = metric_adjoint_derivative(A, dA, frame.g_source, dG1,
                                          frame.g_target, dG2)
    target_connection = np.einsum("gab,a->gb", frame.gamma_target, fx)
    source_connection = np.einsum("kij,i->kj", frame.gamma_source, Xv)
    return SectionDerivatives(
        phi=d_phi + target_connection @ phi,
        omega=dJA - d_phi + target_connection @ (JA - phi),
        q=d_adjoint @ phi + adjoint @ d_phi + source_connection @ adjoint @ phi)


# ---------------------------------------------------------------------------
# Checks

def is_riemannian_map(spec: MapSpec, points, tol: float = DEFAULT_CHECK_TOL,
                      rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
    """Gram-matrix test of the horizontal restriction plus rank constancy."""
    sample = Sample.of(spec, points, rank_tol)
    worst = 0.0
    witness = None
    ranks = []
    for frame in sample.frames():
        ranks.append(frame.rank)
        h = frame.split.horizontal.columns
        pushed = frame.jacobian @ h
        gram = pushed.T @ frame.g_target.matrix @ pushed
        residual = float(np.abs(gram - np.eye(frame.rank)).max()) if frame.rank else 0.0
        if residual > worst:
            worst = residual
            witness = {"point": [float(x) for x in frame.point]}
    rank_constant = len(set(ranks)) <= 1
    detail = {"rank": ranks[0] if rank_constant and ranks else sorted(set(ranks)),
              "rank_constant": rank_constant}
    if not rank_constant:
        return CheckResult("riemannian_map", "fail", residual=worst, tol=tol,
                           samples=len(points),
                           reason="rank varies across samples: not a subimmersion on this box",
                           witness=witness, detail=detail)
    if ranks and ranks[0] == 0:
        return CheckResult("riemannian_map", "fail", residual=worst, tol=tol,
                           samples=len(points),
                           reason="differential vanishes on this box: rank is zero",
                           detail=detail)
    return CheckResult.from_residual("riemannian_map", worst, tol,
                                     samples=len(points), witness=witness,
                                     detail=detail)


def check_sff_range_perp(spec: MapSpec, points, tol: float = DEFAULT_CHECK_TOL,
                         rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
    """The second fundamental form of horizontal pairs must be normal to the range."""
    sample = Sample.of(spec, points, rank_tol)
    worst = 0.0
    witness = None
    for frame in sample.frames():
        h = frame.split.horizontal.columns
        for a in range(frame.rank):
            for b in range(a, frame.rank):
                value = frame.sff_value(h[:, a], h[:, b])
                tangential = project(value, frame.split.range)
                residual = frame.g_target.norm(tangential)
                if residual > worst:
                    worst = residual
                    witness = {"point": [float(x) for x in frame.point],
                               "pair": [a, b]}
    return CheckResult.from_residual("sff_range_perp", worst, tol,
                                     samples=len(points), witness=witness)


def sff_global_max(frame: PointFrame) -> float:
    """Largest sff norm over all pairs from the full orthonormal source basis."""
    basis = np.hstack([frame.split.kernel.columns, frame.split.horizontal.columns])
    worst = 0.0
    for a in range(basis.shape[1]):
        for b in range(a, basis.shape[1]):
            value = frame.sff_value(basis[:, a], basis[:, b])
            worst = max(worst, frame.g_target.norm(value))
    return worst


def fiber_geodesy_residual(frame: PointFrame) -> float:
    """How far the fibers are from totally geodesic: sff over kernel pairs."""
    kernel = frame.split.kernel.columns
    worst = 0.0
    for a in range(kernel.shape[1]):
        for b in range(a, kernel.shape[1]):
            value = frame.sff_value(kernel[:, a], kernel[:, b])
            worst = max(worst, frame.g_target.norm(value))
    return worst


def horizontal_geodesy_residual(frame: PointFrame) -> float:
    """Vertical component of the source connection on horizontal pairs,
    measured as g1(nabla_X Y, W) over frame vectors."""
    h = frame.split.horizontal.columns
    kernel = frame.split.kernel.columns
    if kernel.shape[1] == 0 or h.shape[1] == 0:
        return 0.0
    worst = 0.0
    G = frame.g_source.matrix
    for a in range(h.shape[1]):
        for b in range(h.shape[1]):
            nabla = frame.covariant_source(h[:, a], h[:, b])
            worst = max(worst, float(np.abs(kernel.T @ G @ nabla).max()))
    return worst
