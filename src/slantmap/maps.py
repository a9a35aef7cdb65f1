"""Riemannian-map analysis: frames, splittings, second fundamental form.

The second fundamental form is evaluated through its closed tensorial
coordinate formula

    (sff)^g_ij = d_i d_j F^g - Gamma1^k_ij d_k F^g
                 + Gamma2^g_ab(F(p)) d_i F^a d_j F^b,

so no vector-field extensions enter; jets supply every derivative exactly.

A ``PointFrame`` holds what is known at one point (the adjoint, the split
of J F_* against the range, Q, the section derivatives along the horizontal
frame and the omega/phi defects over horizontal pairs are computed on first
use); a ``Sample`` is the analysis context of one run, whose frames are built
once and read by every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .charts import ChartError, ChartManifold, christoffel, metric_derivative
from .expressions import Expression, eval_jet2, parse_expression
from .linalg import (InnerProduct, TangentSplit, metric_adjoint,
                     metric_adjoint_derivative, range_projector,
                     range_projector_derivative, split_tangent)
from .result import (DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL, CheckResult,
                     worst_residual)


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
    complex_structure_grad: Optional[np.ndarray]  # dJ[c, a, b] = d_c J^a_b
    hessian: np.ndarray  # (m, n, n), d_i d_j F^g

    @property
    def rank(self) -> int:
        return self.split.rank

    @cached_property
    def adjoint(self) -> np.ndarray:
        """Metric adjoint of F_*, solved once per frame."""
        return metric_adjoint(self.jacobian, self.g_source, self.g_target)

    @cached_property
    def range_projector(self) -> np.ndarray:
        """g2-orthogonal projector onto the range of F_*."""
        return range_projector(self.split)

    @cached_property
    def j_pushforward(self) -> np.ndarray:
        """J F_* as an (m, n) matrix."""
        return require_complex_structure(self) @ self.jacobian

    @cached_property
    def phi(self) -> np.ndarray:
        """P J F_*: phi @ X is the range part of J F_*X, and the rest of
        j_pushforward @ X is its normal part omega."""
        return self.range_projector @ self.j_pushforward

    @cached_property
    def adjoint_phi(self) -> np.ndarray:
        """adjoint o phi, so that Q X = adjoint_phi @ X."""
        return self.adjoint @ self.phi

    @cached_property
    def q(self) -> np.ndarray:
        """Matrix of Q in the orthonormal horizontal frame; skew-symmetric."""
        h = self.split.horizontal.columns
        return h.T @ self.g_source.matrix @ self.adjoint_phi @ h

    @cached_property
    def horizontal_derivatives(self) -> "SectionDerivatives":
        """section_derivatives along the horizontal frame, one entry per h_a."""
        return section_derivatives(self, self.split.horizontal.columns)

    @cached_property
    def omega_defects(self) -> np.ndarray:
        """The omega defect over horizontal pairs: [a, :, b] along h_a at
        h_b, shape (r, m, r)."""
        h = self.split.horizontal.columns
        return self.horizontal_derivatives.omega_defect @ h

    @cached_property
    def phi_defects(self) -> np.ndarray:
        """The phi defect over horizontal pairs, laid out as omega_defects."""
        h = self.split.horizontal.columns
        return self.horizontal_derivatives.phi_defect @ h

    def pushforward(self, X) -> np.ndarray:
        return self.jacobian @ np.asarray(X, dtype=float)

    def sff_value(self, X, Y) -> np.ndarray:
        """sff(X, Y); a matrix Y gives one column per column of Y, and a
        matrix X one leading entry per column of X."""
        return _bilinear(self.sff, X, Y)

    def covariant_source(self, X, Y) -> np.ndarray:
        """Source connection applied to constant-coefficient extensions of X, Y,
        with matrices read as in sff_value."""
        return _bilinear(self.gamma_source, X, Y)


def _bilinear(tensor, X, Y) -> np.ndarray:
    return (np.einsum("gij,i...->...gj", tensor, np.asarray(X, float))
            @ np.asarray(Y, float))


def point_frame(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL) -> PointFrame:
    point = np.asarray(p, dtype=float)
    jets = [eval_jet2(c, point) for c in spec.components]
    image = np.array([j.value for j in jets])
    jac = np.array([j.grad for j in jets])
    hess = np.array([j.hess for j in jets])
    g1 = spec.source.metric_at(point)
    g2 = spec.target.metric_at(image)
    split = split_tangent(jac, g1, g2, rank_tol)
    gamma1 = christoffel(spec.source, point)
    gamma2 = christoffel(spec.target, image)
    sff = (hess - np.einsum("kij,gk->gij", gamma1, jac)
           + np.einsum("gab,ai,bj->gij", gamma2, jac, jac))
    J = dJ = None
    if spec.target.complex_structure is not None:
        J, dJ = spec.target.complex_structure_jet(image)
    return PointFrame(point, image, jac, g1, g2, split, gamma1, gamma2, sff, J,
                      dJ, hess)


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
    tangential = tangential_part(frame, V)
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
    return frame.range_projector @ np.asarray(w, dtype=float)


def normal_part(frame: PointFrame, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    return w - frame.range_projector @ w


def phi_omega_from_frame(frame: PointFrame, X):
    """Split J F_*X into its range part (phi) and normal part (omega)."""
    X = np.asarray(X, dtype=float)
    phi = frame.phi @ X
    return phi, frame.j_pushforward @ X - phi


def q_apply(frame: PointFrame, X) -> np.ndarray:
    """Q X = adjoint(phi(F_* X)), a horizontal vector in the source tangent."""
    return frame.adjoint_phi @ np.asarray(X, dtype=float)


@dataclass
class SectionDerivatives:
    """Covariant derivatives of the sections Y -> phi(F_*Y), omega(F_*Y) and
    QY along each direction X_a, and the omega and phi parallelism defects
    (slant.omega_parallel_defect, phi_parallel_defect), stacked along a
    leading direction axis: entry [a] is a matrix acting on Y, extended by
    constant coefficients."""

    phi: np.ndarray           # (k, m, n), pullback connection
    omega: np.ndarray         # (k, m, n), pullback connection
    q: np.ndarray             # (k, n, n), source connection
    omega_defect: np.ndarray  # (k, m, n)
    phi_defect: np.ndarray    # (k, m, n)


def section_derivatives(frame: PointFrame, X) -> SectionDerivatives:
    """Exact derivatives of the phi, omega and Q sections along the curves
    t -> p + tX_a, one for each column X_a of the (n, k) matrix X, taken in
    one stacked pass.

    Along a curve F_* moves by dA = Hess(F) X_a, the metrics by dG1 (along
    X_a) and dG2 (along F_*X_a), and J by its gradient along F_*X_a, all read
    from the jets at p.  With the projector P onto the range, phi = P J A and
    omega = (I - P) J A, so d phi = dP J A + P d(J A) and Q = adjoint phi;
    P and the adjoint, read from the frame, are differentiated exactly at
    constant rank.  The target (pullback) and source Christoffel terms then
    turn the plain derivatives into covariant ones.
    """
    JA, phi, A = frame.j_pushforward, frame.phi, frame.jacobian
    X = np.asarray(X, dtype=float)
    fx = A @ X
    dA = np.moveaxis(frame.hessian @ X, -1, 0)
    dG1 = metric_derivative(frame.g_source.matrix, frame.gamma_source, X)
    dG2 = metric_derivative(frame.g_target.matrix, frame.gamma_target, fx)
    dJ = np.einsum("cab,ck->kab", frame.complex_structure_grad, fx)
    dP = range_projector_derivative(frame.range_projector, A, dA, frame.split,
                                    dG2)
    dJA = dJ @ A + frame.complex_structure @ dA
    d_phi = dP @ JA + frame.range_projector @ dJA
    d_adjoint = metric_adjoint_derivative(frame.adjoint, A, dA, frame.g_source,
                                          dG1, frame.g_target, dG2)
    target_connection = np.einsum("gab,ak->kgb", frame.gamma_target, fx)
    source_connection = np.einsum("kij,ia->akj", frame.gamma_source, X)
    nabla_phi = d_phi + target_connection @ phi
    nabla_omega = dJA - d_phi + target_connection @ (JA - phi)
    return SectionDerivatives(
        phi=nabla_phi, omega=nabla_omega,
        q=(d_adjoint @ phi + frame.adjoint @ d_phi
           + source_connection @ frame.adjoint_phi),
        omega_defect=(normal_part(frame, nabla_omega)
                      - (JA - phi) @ source_connection),
        phi_defect=(nabla_phi - phi @ source_connection
                    - frame.sff_value(X, frame.adjoint_phi)))


# ---------------------------------------------------------------------------
# Checks

def is_riemannian_map(sample: Sample,
                      tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Gram-matrix test of the horizontal restriction plus rank constancy."""
    frames = list(sample.frames())
    worst, witness = worst_residual(
        (gram_residual(frame.jacobian @ frame.split.horizontal.columns,
                       frame.g_target), frame.point, {}) for frame in frames)
    ranks = [frame.rank for frame in frames]
    rank_constant = len(set(ranks)) <= 1
    detail = {"rank": ranks[0] if rank_constant and ranks else sorted(set(ranks)),
              "rank_constant": rank_constant}
    if not rank_constant or (ranks and ranks[0] == 0):
        reason = ("differential vanishes on this box: rank is zero" if rank_constant
                  else "rank varies across samples: not a subimmersion on this box")
        return CheckResult("riemannian_map", "fail", residual=worst, tol=tol,
                           samples=len(sample), reason=reason, detail=detail,
                           witness=None if rank_constant else witness)
    return CheckResult.from_residual("riemannian_map", worst, tol,
                                     samples=len(sample), witness=witness,
                                     detail=detail)


def gram_residual(columns: np.ndarray, metric: InnerProduct) -> float:
    """How far the columns are from orthonormal under the metric."""
    gram = columns.T @ metric.matrix @ columns
    return float(np.abs(gram - np.eye(columns.shape[1])).max(initial=0.0))


def check_sff_range_perp(sample: Sample,
                         tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """The second fundamental form of horizontal pairs must be normal to the range."""
    def residuals(frame):
        h = frame.split.horizontal.columns
        for a in range(frame.rank):
            tangential = tangential_part(frame, frame.sff_value(h[:, a], h[:, a:]))
            for b, residual in enumerate(frame.g_target.norms(tangential), start=a):
                yield residual, frame.point, {"pair": [a, b]}

    worst, witness = worst_residual(
        item for frame in sample.frames() for item in residuals(frame))
    return CheckResult.from_residual("sff_range_perp", worst, tol,
                                     samples=len(sample), witness=witness)


def _sff_norm_max(frame: PointFrame, basis: np.ndarray) -> float:
    """Largest sff norm over pairs of columns of ``basis``."""
    values = np.einsum("gij,ia,jb->gab", frame.sff, basis, basis)
    squares = np.einsum("gab,gh,hab->ab", values, frame.g_target.matrix, values)
    return float(np.sqrt(np.maximum(squares, 0.0)).max(initial=0.0))


def sff_global_max(frame: PointFrame) -> float:
    """Largest sff norm over all pairs from the full orthonormal source basis."""
    return _sff_norm_max(frame, np.hstack([frame.split.kernel.columns,
                                           frame.split.horizontal.columns]))


def fiber_geodesy_residual(frame: PointFrame) -> float:
    """How far the fibers are from totally geodesic: sff over kernel pairs."""
    return _sff_norm_max(frame, frame.split.kernel.columns)


def horizontal_geodesy_residual(frame: PointFrame) -> float:
    """Vertical component of the source connection on horizontal pairs,
    measured as g1(nabla_X Y, W) over frame vectors."""
    h = frame.split.horizontal.columns
    kernel = frame.split.kernel.columns
    if kernel.shape[1] == 0 or h.shape[1] == 0:
        return 0.0
    nabla = np.einsum("kij,ia,jb->kab", frame.gamma_source, h, h)
    return float(np.abs(np.einsum("kw,kl,lab->wab", kernel,
                                  frame.g_source.matrix, nabla)).max())
