"""Riemannian-map analysis: differential, splittings, second fundamental form.

The second fundamental form is evaluated through its closed tensorial
coordinate formula

    (sff)^g_ij = d_i d_j F^g - Gamma1^k_ij d_k F^g
                 + Gamma2^g_ab(F(p)) d_i F^a d_j F^b,

so no vector-field extensions enter; jets supply every derivative exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .charts import ChartManifold, christoffel
from .expressions import Expression, eval_jet2, parse_expression
from .linalg import (DEFAULT_RANK_TOL, InnerProduct, TangentSplit, project,
                     metric_adjoint, split_tangent)
from .result import CheckResult

DEFAULT_CHECK_TOL = 1e-8


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

    def adjoint(self) -> np.ndarray:
        return metric_adjoint(self.jacobian, self.g_source, self.g_target)

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
    frame = point_frame(spec, p, rank_tol)
    return tension_from_frame(frame)


def tension_from_frame(frame: PointFrame) -> np.ndarray:
    inverse = np.linalg.inv(frame.g_source.matrix)
    return np.einsum("ij,gij->g", inverse, frame.sff)


def fiber_mean_curvature(spec: MapSpec, p,
                         rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Trace of the second fundamental form over the kernel; zero iff the
    fiber through p is minimal."""
    frame = point_frame(spec, p, rank_tol)
    return fiber_mean_curvature_from_frame(frame)


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
    frame = point_frame(spec, p, rank_tol)
    return s_v_from_frame(frame, V, tol)


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


def is_riemannian_map(spec: MapSpec, points, tol: float = DEFAULT_CHECK_TOL,
                      rank_tol: float = DEFAULT_RANK_TOL) -> CheckResult:
    """Gram-matrix test of the horizontal restriction plus rank constancy."""
    worst = 0.0
    witness = None
    ranks = []
    for p in points:
        frame = point_frame(spec, p, rank_tol)
        ranks.append(frame.rank)
        h = frame.split.horizontal.columns
        pushed = frame.jacobian @ h
        gram = pushed.T @ frame.g_target.matrix @ pushed
        residual = float(np.abs(gram - np.eye(frame.rank)).max()) if frame.rank else 0.0
        if residual > worst:
            worst = residual
            witness = {"point": [float(x) for x in p]}
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
    worst = 0.0
    witness = None
    for p in points:
        frame = point_frame(spec, p, rank_tol)
        h = frame.split.horizontal.columns
        for a in range(frame.rank):
            for b in range(a, frame.rank):
                value = frame.sff_value(h[:, a], h[:, b])
                tangential = project(value, frame.split.range)
                residual = frame.g_target.norm(tangential)
                if residual > worst:
                    worst = residual
                    witness = {"point": [float(x) for x in p],
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
