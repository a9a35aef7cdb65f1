"""Coordinate charts: metric fields, Levi-Civita connection, complex structures.

A chart is a single global coordinate patch.  Metric and complex-structure
entries are DSL expressions evaluated with jets; one metric jet per point
gives the metric and, with exact derivatives, its Christoffel symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expressions import Expression, eval_jets, parse_expression
from .expressions import eval_jet2  # noqa: F401  (test_perfbench.py expects it here)
from .linalg import InnerProduct, MetricError
from .result import DEFAULT_CHECK_TOL, CheckResult, worst_residual


class ChartError(ValueError):
    """Raised for structurally invalid charts or out-of-domain evaluations."""


@dataclass(frozen=True)
class ChartManifold:
    """Coordinate chart with a metric and an optional almost complex structure."""

    dim: int
    metric: tuple
    complex_structure: Optional[tuple] = None

    @staticmethod
    def from_strings(dim: int, metric: Optional[Sequence[Sequence[str]]] = None,
                     complex_structure: Optional[Sequence[Sequence[str]]] = None
                     ) -> "ChartManifold":
        if metric is None:
            metric = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
        parsed_metric = _parse_matrix(metric, dim, "metric")
        for i in range(dim):
            for j in range(i + 1, dim):
                if parsed_metric[i][j].root != parsed_metric[j][i].root:
                    raise ChartError(
                        f"metric entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                        "are not structurally symmetric")
        parsed_j = None
        if complex_structure is not None:
            if dim % 2 != 0:
                raise ChartError("a complex structure requires even dimension")
            parsed_j = _parse_matrix(complex_structure, dim, "complex structure")
        return ChartManifold(dim, parsed_metric, parsed_j)

    @staticmethod
    def euclidean(dim: int,
                  complex_structure: Optional[Sequence[Sequence[str]]] = None
                  ) -> "ChartManifold":
        return ChartManifold.from_strings(dim, None, complex_structure)

    def metric_values(self, p) -> np.ndarray:
        return _matrix_values(self.metric, p)

    def metric_at(self, p) -> tuple[InnerProduct, np.ndarray]:
        """The metric at p and its Christoffel symbols, from one jet of the
        upper triangle (``from_strings`` makes the metric symmetric)."""
        n = self.dim
        upper = np.triu_indices(n)
        values, grads = eval_jets([self.metric[i][j] for i, j in zip(*upper)], p, 1)
        G, dG = np.empty((n, n)), np.empty((n, n, n))  # dG[i, j, l] = d_l g_ij
        G[upper] = G[upper[::-1]] = values
        dG[upper] = dG[upper[::-1]] = grads
        try:
            ip = InnerProduct(G)
        except MetricError as exc:
            raise ChartError(f"metric is not positive definite at {list(p)}: {exc}")
        return ip, christoffel(ip.matrix, dG)

    def complex_structure_at(self, p) -> np.ndarray:
        if self.complex_structure is None:
            raise ChartError("chart has no complex structure")
        return _matrix_values(self.complex_structure, p)

    def complex_structure_jet(self, p):
        """J at p and its coordinate derivatives dJ[i, a, b] = d_i J^a_b."""
        if self.complex_structure is None:
            raise ChartError("chart has no complex structure")
        return _matrix_jet(self.complex_structure, p)


def _parse_matrix(entries, dim: int, what: str):
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise ChartError(f"{what} must be a {dim}x{dim} array of expressions")
    return tuple(
        tuple(e if isinstance(e, Expression) else parse_expression(str(e), dim)
              for e in row)
        for row in entries)


def _matrix_values(entries, p) -> np.ndarray:
    dim = len(entries)
    return eval_jets([e for row in entries for e in row], p, 0)[0].reshape(dim, dim)


def _matrix_jet(entries, p):
    """Values [a, b] and coordinate derivatives [i, a, b] of a matrix field."""
    dim = len(entries)
    values, grads = eval_jets([e for row in entries for e in row], p, 1)
    return values.reshape(dim, dim), grads.T.reshape(-1, dim, dim)


def christoffel(G, dG) -> np.ndarray:
    """Levi-Civita symbols Gamma[k, i, j] of the metric matrix G with
    derivatives dG[i, j, l] = d_l g_ij (symmetric in i, j, and so is Gamma):
    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    inverse = np.linalg.inv(G)
    # lower[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    lower = np.transpose(dG, (2, 0, 1)) + np.transpose(dG, (0, 2, 1)) - dG
    return 0.5 * np.einsum("kl,ijl->kij", inverse, lower)


def metric_derivative(G, gamma, X) -> np.ndarray:
    """Derivatives of the metric matrix G along the columns of X, stacked
    along a leading axis and recovered from its Levi-Civita symbols:
    d_k g_ij = g_il Gamma^l_kj + g_jl Gamma^l_ki."""
    lowered = G @ np.einsum("lkj,ka->alj", gamma, X)
    return lowered + np.swapaxes(lowered, -1, -2)


def _unit_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    vecs = rng.standard_normal((count, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def check_almost_hermitian(chart: ChartManifold, points,
                           tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Verify J^2 = -I and metric compatibility g(JX, JY) = g(X, Y)."""
    if chart.complex_structure is None:
        return CheckResult.error("almost_hermitian", "chart has no complex structure")
    pairs = []  # (square, compatibility) residual per point
    for p in points:
        J = chart.complex_structure_at(p)
        G = chart.metric_values(p)
        pairs.append((np.linalg.norm(J @ J + np.eye(chart.dim)),
                      np.linalg.norm(J.T @ G @ J - G)))
    worst, witness = worst_residual((max(pair), p, {})
                                    for p, pair in zip(points, pairs))
    return CheckResult.from_residual(
        "almost_hermitian", worst, tol, samples=len(points), witness=witness,
        detail={"square_residual": max([0.0] + [s for s, _ in pairs]),
                "compatibility_residual": max([0.0] + [c for _, c in pairs])})


def check_kahler(chart: ChartManifold, points, dirs: int = 4,
                 tol: float = DEFAULT_CHECK_TOL, seed: int = 42) -> CheckResult:
    """Verify that the complex structure is parallel: (nabla_X J) Y = 0.

    (nabla_i J)^a_b = d_i J^a_b + Gamma^a_ic J^c_b - Gamma^c_ib J^a_c.  The
    residual contracts the full tensor over a metric-orthonormal frame
    (a Frobenius norm), so it does not depend on how directions are sampled;
    the seeded unit directions only feed the per-direction maximum reported
    in the detail block.
    """
    if chart.complex_structure is None:
        return CheckResult.error("kahler", "chart has no complex structure")
    n = chart.dim
    rng = np.random.default_rng(seed)
    residuals = []  # (residual, point, fields) per point
    direction_max = 0.0
    for p in points:
        ip, gamma = chart.metric_at(p)
        G = ip.matrix
        J, dJ = chart.complex_structure_jet(p)
        nabla = (dJ + np.einsum("aic,cb->iab", gamma, J)
                 - np.einsum("ac,cib->iab", J, gamma))
        frame = np.linalg.solve(ip.cholesky.T, np.eye(n))  # g-orthonormal
        contracted = np.einsum("iab,ix,by->axy", nabla, frame, frame)
        squares = np.einsum("axy,ab,bxy->", contracted, G, contracted)
        residuals.append((float(np.sqrt(max(squares, 0.0))), p, {}))
        directions = _unit_directions(rng, dirs, n)
        # (nabla_X J) Y for every pair of sampled directions, one column each
        values = np.einsum("iab,xi,yb->axy", nabla, directions, directions)
        pair_squares = np.einsum("axy,ab,bxy->xy", values, G, values)
        direction_max = max(direction_max, float(
            np.sqrt(np.maximum(pair_squares, 0.0)).max(initial=0.0)))
    worst, witness = worst_residual(residuals)
    return CheckResult.from_residual("kahler", worst, tol,
                                     samples=len(points), witness=witness,
                                     detail={"direction_max": direction_max})
