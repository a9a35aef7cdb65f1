"""Linear algebra relative to symmetric positive-definite inner products.

Every metric problem is whitened through a Cholesky factor G = L L^T and
solved in Euclidean coordinates, then mapped back.  Basis vectors follow a
fixed convention (decreasing singular value, first significant component
positive) so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .result import DEFAULT_RANK_TOL


class MetricError(ValueError):
    """Raised for inner products that are not symmetric positive-definite;
    ``index`` is the first failing matrix of a stack."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def _trusted(cls, **fields):
    """An instance of cls holding fields, without re-validating them."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        setattr(obj, name, value)
    return obj


class InnerProduct:
    """Gram matrix of a Riemannian metric at a point, or at each point of a
    stack (..., n, n); ``ip[i]`` is the inner product at point i."""

    @np.errstate(invalid="ignore", over="ignore")
    def __init__(self, matrix, sym_tol: float = 1e-12):
        G = np.asarray(matrix, dtype=float)
        if G.ndim < 2 or G.shape[-1] != G.shape[-2]:
            raise MetricError(f"inner product matrix must be square, got {G.shape}")
        stack = G.reshape((-1,) + G.shape[-2:])
        transposed = stack.transpose(0, 2, 1)
        scale = np.abs(stack).max(axis=(1, 2), initial=0.0)
        scale[scale == 0.0] = 1.0
        asymmetry = np.abs(stack - transposed).max(axis=(1, 2), initial=0.0)
        # the first matrix that is non-finite or not symmetric, and the first
        # before it that is not positive definite
        invalid = ~(np.isfinite(scale) & (asymmetry <= sym_tol * scale))
        valid = int(invalid.argmax()) if invalid.any() else len(stack)
        stack = 0.5 * (stack + transposed)
        lowest = np.linalg.eigvalsh(stack[:valid]).min(axis=1)
        if (lowest <= 0.0).any():
            index = int((lowest <= 0.0).argmax())
            raise MetricError(
                f"inner product is not positive definite (min eigenvalue {lowest[index]:g})",
                index)
        if valid < len(stack):
            raise MetricError(
                "inner product matrix has non-finite entries"
                if not np.isfinite(scale[valid])
                else "inner product matrix is not symmetric", valid)
        self.matrix = stack.reshape(G.shape)
        self.cholesky = np.linalg.cholesky(self.matrix)

    def __getitem__(self, i) -> "InnerProduct":
        return _trusted(InnerProduct, matrix=self.matrix[i],
                        cholesky=self.cholesky[i])

    @cached_property
    def per_point(self) -> list:
        """The inner product at each point of a stack, each built once."""
        return [self[i] for i in range(len(self.matrix))]

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))

    def norm(self, v) -> float:
        return float(np.sqrt(max(self.inner(v, v), 0.0)))

    def norms(self, vectors: np.ndarray) -> np.ndarray:
        """Norms of the columns (of each matrix, for a stack of them)."""
        squares = np.einsum("...ia,ij,...ja->...a", vectors, self.matrix,
                            vectors)
        return np.sqrt(np.maximum(squares, 0.0))


@dataclass
class SubspaceBasis:
    """Columns orthonormal under the referenced inner product."""

    columns: np.ndarray  # (n, k)
    metric: InnerProduct

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=float)
        if self.columns.ndim != 2:
            raise ValueError("basis columns must form a 2d array")
        _check_orthonormal(self.columns, self.metric.matrix)

    @property
    def dim(self) -> int:
        return self.columns.shape[1]


def _check_orthonormal(columns, matrix, rank=None) -> None:
    """Raise unless the columns (of each matrix of a stack) are orthonormal
    under the metric matrix (of the same point); with ``rank``, the first
    rank columns and the rest are two bases, each checked on its own."""
    gram = np.swapaxes(columns, -1, -2) @ matrix @ columns
    error = np.abs(gram - np.eye(columns.shape[-1]))
    if rank is not None:
        error[..., :rank, rank:] = error[..., rank:, :rank] = 0.0
    if error.max(initial=0.0) > 1e-10:
        raise ValueError("basis columns are not orthonormal under the metric")


@dataclass
class TangentSplit:
    """Orthonormal bases for kernel/horizontal (source) and range/normal (target)."""

    rank: int
    kernel: SubspaceBasis
    horizontal: SubspaceBasis
    range: SubspaceBasis
    range_perp: SubspaceBasis


def _fix_signs(columns: np.ndarray) -> np.ndarray:
    """Each column (of each matrix of a stack) with its first significant
    component made positive."""
    magnitude = np.abs(columns)
    largest = np.maximum(magnitude.max(axis=-2, keepdims=True, initial=0.0), 1e-300)
    significant = magnitude > 1e-10 * largest
    first = significant & (np.cumsum(significant, axis=-2) == 1)
    flip = (np.where(first, columns, 0.0).sum(axis=-2, keepdims=True) < 0)
    return np.where(flip, -columns, columns)


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


def metric_adjoint_derivative(adjoint, A, dA, g1: InnerProduct, dG1,
                              g2: InnerProduct, dG2) -> np.ndarray:
    """Derivative of ``adjoint``, the metric adjoint of A, when A, G1 and G2
    move with velocities dA, dG1 and dG2: G1^-1 (dA^T G2 + A^T dG2 - dG1
    adjoint).  Velocities stacked along a leading axis give one derivative
    per entry."""
    return np.linalg.solve(g1.matrix, np.swapaxes(dA, -1, -2) @ g2.matrix
                           + A.T @ dG2 - dG1 @ adjoint)


def range_projector(split: TangentSplit) -> np.ndarray:
    """The g2-orthogonal projector R R^T G2 onto the range of the split map."""
    R = split.range.columns
    return R @ R.T @ split.range.metric.matrix


def range_projector_derivative(P, A, dA, split: TangentSplit,
                               dG2) -> np.ndarray:
    """Derivative of P, the g2-orthogonal projector onto range A.

    A moves with velocity dA and the target metric with velocity dG2, at
    constant rank.  With the metric pseudo-inverse A+ = H S^-1 R^T G2 built
    from the split bases (S = R^T G2 A H) and K = (I - P) dA A+,

        dP = K + G2^-1 K^T G2 + G2^-1 P^T dG2 (I - P)

    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).  Velocities stacked
    along a leading axis give one derivative per entry.
    """
    G2 = split.range.metric.matrix
    H = split.horizontal.columns
    R = split.range.columns
    pseudo_inverse = H @ np.linalg.solve(R.T @ G2 @ A @ H, R.T @ G2)
    complement = np.eye(len(G2)) - P
    K = complement @ dA @ pseudo_inverse
    return K + np.linalg.solve(G2, np.swapaxes(K, -1, -2) @ G2
                               + P.T @ dG2 @ complement)


def split_tangent(A, g1: InnerProduct, g2: InnerProduct,
                  tol: float = DEFAULT_RANK_TOL) -> TangentSplit:
    """Rank and the four orthonormal bases attached to a linear map: one
    point of ``split_tangents``."""
    A = np.asarray(A, dtype=float)
    if A.shape != (g2.dim, g1.dim):
        raise ValueError(f"matrix shape {A.shape} does not match metrics")
    stacked = [_trusted(InnerProduct, matrix=g.matrix[None], cholesky=g.cholesky[None])
               for g in (g1, g2)]
    return split_tangents(A[None], *stacked, tol)[0]


def split_tangents(A, g1: InnerProduct, g2: InnerProduct,
                   tol: float = DEFAULT_RANK_TOL) -> list:
    """The TangentSplit of each map A[i] of a stack (N, m, n) between the
    inner products g1[i] and g2[i].

    The map is whitened to M = L2^T A L1^{-T}; a Euclidean SVD of M then
    yields g1-orthonormal kernel/horizontal bases and g2-orthonormal
    range/normal bases.  Rank counts singular values above tol times the
    largest one.
    """
    # A L1^{-T} without forming the inverse: solve L1 X^T = A^T.
    X = np.linalg.solve(g1.cholesky, A.transpose(0, 2, 1)).transpose(0, 2, 1)
    U, s, Vt = np.linalg.svd(g2.cholesky.transpose(0, 2, 1) @ X)
    sigma_max = s[:, 0] if s.shape[1] else np.zeros(len(A))
    ranks = np.where(sigma_max > 0,
                     np.sum(s > tol * sigma_max[:, None], axis=1), 0)
    V = Vt.transpose(0, 2, 1)
    if (ranks == ranks[0]).all():
        groups = [(ranks[0], range(len(A)), slice(None))]
    else:
        groups = [(rank, at, at) for rank in np.unique(ranks)
                  for at in [np.flatnonzero(ranks == rank)]]
    splits = [None] * len(A)
    for rank, points, at in groups:
        # horizontal then kernel columns, and range then normal columns
        source = _unwhitened(g1, at, rank, V[at])
        target = _unwhitened(g2, at, rank, U[at])
        for j, i in enumerate(points):
            h1, h2 = g1.per_point[i], g2.per_point[i]
            splits[i] = TangentSplit(
                int(rank), kernel=_basis(source[j, :, rank:], h1),
                horizontal=_basis(source[j, :, :rank], h1),
                range=_basis(target[j, :, :rank], h2),
                range_perp=_basis(target[j, :, rank:], h2))
    return splits


def _basis(columns, metric: InnerProduct) -> SubspaceBasis:
    """A basis whose columns were checked orthonormal with their stack."""
    return _trusted(SubspaceBasis, columns=columns, metric=metric)


def _unwhitened(ip: InnerProduct, at, rank, whitened) -> np.ndarray:
    """The whitened columns mapped back through the Cholesky factors of ip at
    the points ``at`` of the stack, with signs fixed; the first ``rank``
    columns and the rest are solved alone and checked orthonormal as two
    bases."""
    factors = ip.cholesky[at].transpose(0, 2, 1)
    columns = _fix_signs(np.concatenate(
        [np.linalg.solve(factors, block)
         for block in (whitened[..., :rank], whitened[..., rank:])], axis=2))
    _check_orthonormal(columns, ip.matrix[at], rank)
    return columns


def project(v, basis: SubspaceBasis) -> np.ndarray:
    """Orthogonal projection of v onto the span of the basis."""
    v = np.asarray(v, dtype=float)
    if basis.dim == 0:
        return np.zeros_like(v)
    coefficients = basis.columns.T @ basis.metric.matrix @ v
    return basis.columns @ coefficients
