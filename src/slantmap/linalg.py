"""Linear algebra relative to symmetric positive-definite inner products.

Every metric problem is whitened through a Cholesky factor G = L L^T and
solved in Euclidean coordinates, then mapped back.  Basis vectors follow a
fixed convention (decreasing singular value, first significant component
positive) so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

DEFAULT_RANK_TOL = 1e-8


class MetricError(ValueError):
    """Raised for inner products that are not symmetric positive-definite."""


class InnerProduct:
    """Gram matrix of a Riemannian metric at a point."""

    def __init__(self, matrix, sym_tol: float = 1e-12):
        G = np.asarray(matrix, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise MetricError(f"inner product matrix must be square, got {G.shape}")
        scale = np.abs(G).max() or 1.0
        if np.abs(G - G.T).max() > sym_tol * scale:
            raise MetricError("inner product matrix is not symmetric")
        G = 0.5 * (G + G.T)
        eigenvalues = np.linalg.eigvalsh(G)
        if eigenvalues.min() <= 0.0:
            raise MetricError(
                f"inner product is not positive definite (min eigenvalue {eigenvalues.min():g})")
        self.matrix = G
        self.cholesky = np.linalg.cholesky(G)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))

    def norm(self, v) -> float:
        return float(np.sqrt(max(self.inner(v, v), 0.0)))

    def whiten(self, vectors: np.ndarray) -> np.ndarray:
        """Map columns to coordinates where the metric is Euclidean."""
        return self.cholesky.T @ vectors

    def unwhiten(self, vectors: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.cholesky.T, vectors)


@dataclass
class SubspaceBasis:
    """Columns orthonormal under the referenced inner product."""

    columns: np.ndarray  # (n, k)
    metric: InnerProduct

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=float)
        if self.columns.ndim != 2:
            raise ValueError("basis columns must form a 2d array")
        k = self.columns.shape[1]
        if k:
            gram = self.columns.T @ self.metric.matrix @ self.columns
            if np.abs(gram - np.eye(k)).max() > 1e-10:
                raise ValueError("basis columns are not orthonormal under the metric")

    @property
    def dim(self) -> int:
        return self.columns.shape[1]


@dataclass
class TangentSplit:
    """Orthonormal bases for kernel/horizontal (source) and range/normal (target)."""

    rank: int
    kernel: SubspaceBasis
    horizontal: SubspaceBasis
    range: SubspaceBasis
    range_perp: SubspaceBasis
    point: Optional[np.ndarray] = field(default=None)


def _fix_signs(columns: np.ndarray) -> np.ndarray:
    out = columns.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        significant = np.nonzero(np.abs(col) > 1e-10 * max(np.abs(col).max(), 1e-300))[0]
        if significant.size and col[significant[0]] < 0:
            out[:, j] = -col
    return out


def gram_schmidt(vectors, ip: InnerProduct, tol: float = 1e-10) -> SubspaceBasis:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Vectors whose residual drops below tol times the largest input norm are
    treated as dependent and dropped.
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        return SubspaceBasis(np.zeros((ip.dim, 0)), ip)
    max_norm = max(ip.norm(v) for v in vecs)
    kept = []
    for v in vecs:
        w = v.copy()
        for _ in range(2):
            for b in kept:
                w = w - ip.inner(b, w) * b
        norm = ip.norm(w)
        if max_norm > 0 and norm >= tol * max_norm:
            kept.append(w / norm)
    columns = np.column_stack(kept) if kept else np.zeros((ip.dim, 0))
    return SubspaceBasis(columns, ip)


def metric_adjoint(A, g1: InnerProduct, g2: InnerProduct) -> np.ndarray:
    """Adjoint B of A with g1(x, B y) = g2(A x, y) for all x, y."""
    A = np.asarray(A, dtype=float)
    if A.shape != (g2.dim, g1.dim):
        raise ValueError(f"matrix shape {A.shape} does not match metrics "
                         f"({g2.dim}x{g1.dim} expected)")
    return np.linalg.solve(g1.matrix, A.T @ g2.matrix)


def metric_adjoint_derivative(A, dA, g1: InnerProduct, dG1,
                              g2: InnerProduct, dG2) -> np.ndarray:
    """Derivative of metric_adjoint(A, g1, g2) when A, G1 and G2 move with
    velocities dA, dG1 and dG2: G1^-1 (dA^T G2 + A^T dG2 - dG1 adjoint)."""
    adjoint = metric_adjoint(A, g1, g2)
    return np.linalg.solve(g1.matrix, dA.T @ g2.matrix + A.T @ dG2
                           - dG1 @ adjoint)


def range_projector_derivative(A, dA, split: TangentSplit, dG2):
    """The g2-orthogonal projector P onto range A and its derivative.

    A moves with velocity dA and the target metric with velocity dG2, at
    constant rank.  With the metric pseudo-inverse A+ = H S^-1 R^T G2 built
    from the split bases (S = R^T G2 A H) and K = (I - P) dA A+,

        dP = K + G2^-1 K^T G2 + G2^-1 P^T dG2 (I - P)

    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).  Returns (P, dP).
    """
    G2 = split.range.metric.matrix
    H = split.horizontal.columns
    R = split.range.columns
    P = R @ R.T @ G2
    S = R.T @ G2 @ A @ H
    pseudo_inverse = H @ np.linalg.solve(S, R.T @ G2)
    complement = np.eye(len(G2)) - P
    K = complement @ dA @ pseudo_inverse
    return P, K + np.linalg.solve(G2, K.T @ G2 + P.T @ dG2 @ complement)


def split_tangent(A, g1: InnerProduct, g2: InnerProduct,
                  tol: float = DEFAULT_RANK_TOL) -> TangentSplit:
    """Rank and the four orthonormal bases attached to a linear map.

    The map is whitened to M = L2^T A L1^{-T}; a Euclidean SVD of M then
    yields g1-orthonormal kernel/horizontal bases and g2-orthonormal
    range/normal bases.  Rank counts singular values above tol times the
    largest one.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if (m, n) != (g2.dim, g1.dim):
        raise ValueError(f"matrix shape {A.shape} does not match metrics")
    # A L1^{-T} without forming the inverse: solve L1 X^T = A^T.
    X = np.linalg.solve(g1.cholesky, A.T).T
    M = g2.cholesky.T @ X
    U, s, Vt = np.linalg.svd(M)
    sigma_max = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * sigma_max)) if sigma_max > 0 else 0
    V = Vt.T
    horizontal = _fix_signs(g1.unwhiten(V[:, :rank]))
    kernel = _fix_signs(g1.unwhiten(V[:, rank:]))
    range_cols = _fix_signs(g2.unwhiten(U[:, :rank]))
    perp_cols = _fix_signs(g2.unwhiten(U[:, rank:]))
    return TangentSplit(
        rank=rank,
        kernel=SubspaceBasis(kernel, g1),
        horizontal=SubspaceBasis(horizontal, g1),
        range=SubspaceBasis(range_cols, g2),
        range_perp=SubspaceBasis(perp_cols, g2),
    )


def project(v, basis: SubspaceBasis) -> np.ndarray:
    """Orthogonal projection of v onto the span of the basis."""
    v = np.asarray(v, dtype=float)
    if basis.dim == 0:
        return np.zeros_like(v)
    coefficients = basis.columns.T @ basis.metric.matrix @ v
    return basis.columns @ coefficients
