"""Linear algebra relative to symmetric positive-definite inner products.

Every metric problem is whitened through a Cholesky factor G = L L^T, which
an ``InnerProduct`` inverts once: its g-orthonormal frame L^{-T} and G^{-1}
serve every later step as matrix products.  ``split_tangents`` turns them
into the orthonormal frames B1 = [h | k] and B2 = [R | N] of a map, plain
arrays with the rank, in which the checks read every tensor as components,
so that the metric has done its work once the split is built; a
``TangentSplit`` names their four blocks (``TangentSplit.of``).  Basis
vectors follow a fixed convention (decreasing singular value, first
significant component positive) so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # L^{-T}, whose columns are g-orthonormal, and G^{-1} = L^{-T} L^{-1}
        self.frame = np.swapaxes(np.linalg.inv(self.cholesky), -1, -2)
        self.inverse = self.frame @ np.swapaxes(self.frame, -1, -2)

    def __getitem__(self, i) -> "InnerProduct":
        return _trusted(InnerProduct, matrix=self.matrix[i],
                        cholesky=self.cholesky[i], frame=self.frame[i],
                        inverse=self.inverse[i])

    def repeated(self, count: int) -> "InnerProduct":
        """The inner product of a one-point stack at each of count points:
        read-only broadcast views of its arrays, not validated again."""
        return _trusted(InnerProduct, **{
            name: np.broadcast_to(x, (count,) + x.shape[1:])
            for name, x in vars(self).items()})

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))

    def norm(self, v):
        """Norm of a vector, or of each vector of a stack (N, m) under the
        inner product at its point."""
        v = np.asarray(v, dtype=float)
        square = (v[..., None, :] @ self.matrix @ v[..., :, None])[..., 0, 0]
        norm = np.sqrt(np.maximum(square, 0.0))
        return float(norm) if v.ndim == 1 else norm


def lift(x: np.ndarray, ndim: int) -> np.ndarray:
    """A matrix, or a stack (N, k, l) of them, with unit axes inserted before
    the matrix axes so that it broadcasts against an array of ``ndim``
    dimensions whose extra axes sit between the point and matrix axes."""
    return x.reshape(x.shape[:-2] + (1,) * (ndim - x.ndim) + x.shape[-2:])


def pairings(U, G, V) -> np.ndarray:
    """sum_ij U[i, a] G[i, j] V[j, a] for each column a: the pairing of
    matching columns under the matrix G (at each point, for a stack, lifted
    over the extra axes of V as in ``lift``)."""
    return ((lift(G, V.ndim) @ V) * U).sum(axis=-2)


def apply_along(x, tensor, axis: int) -> np.ndarray:
    """The matrix x (at each point, for a stack) applied along index ``axis``
    (0 or 1) of the 3-tensor ``tensor`` (at each point), its index placed
    first: out[k, i, j] = sum_l x[k, l] tensor[l, i, j] for axis 0 and
    sum_l x[k, l] tensor[i, l, j] for axis 1."""
    if axis == 1:
        return np.swapaxes(x[..., None, :, :] @ tensor, -3, -2)
    *lead, rows, i, j = tensor.shape
    out = x @ tensor.reshape(*lead, rows, i * j)
    return out.reshape(out.shape[:-1] + (i, j))


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
        return self.columns.shape[-1]


def _check_orthonormal(columns, matrix, rank=None, rows=None) -> None:
    """Raise unless the columns (of each matrix of a stack) are orthonormal
    under the metric matrix (of the same point); with ``rank``, the first
    rank columns and the rest are two bases, each checked on its own.  The
    error's ``index`` is the first failing matrix, or its entry in ``rows``,
    the places of the stack's matrices in a larger one."""
    gram = np.swapaxes(columns, -1, -2) @ matrix @ columns
    error = np.abs(gram - np.eye(columns.shape[-1]))
    if rank is not None:
        error[..., :rank, rank:] = error[..., rank:, :rank] = 0.0
    bad = np.flatnonzero((error > 1e-10).any(axis=(-2, -1)))
    if bad.size:
        exc = ValueError("basis columns are not orthonormal under the metric")
        exc.index = int(bad[0] if rows is None else rows[bad[0]])
        raise exc


@dataclass
class TangentSplit:
    """Orthonormal bases for kernel/horizontal (source) and range/normal (target)."""

    rank: int
    kernel: SubspaceBasis
    horizontal: SubspaceBasis
    range: SubspaceBasis
    range_perp: SubspaceBasis

    @staticmethod
    def of(rank: int, B1, B2, g1: InnerProduct, g2: InnerProduct) -> "TangentSplit":
        """The four bases as slices of B1 = [h | k] and B2 = [R | N] (stacked
        or not), whose columns were checked orthonormal under g1 and g2."""
        return TangentSplit(rank, kernel=_basis(B1[..., rank:], g1),
                            horizontal=_basis(B1[..., :rank], g1),
                            range=_basis(B2[..., :rank], g2),
                            range_perp=_basis(B2[..., rank:], g2))


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
    """Adjoint B of A with g1(x, B y) = g2(A x, y) for all x, y (of each map
    of a stack (N, m, n), under the inner products at its point)."""
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (g2.dim, g1.dim):
        raise ValueError(f"matrix shape {A.shape} does not match metrics "
                         f"({g2.dim}x{g1.dim} expected)")
    return g1.inverse @ (np.swapaxes(A, -1, -2) @ g2.matrix)


def split_tangent(A, g1: InnerProduct, g2: InnerProduct,
                  tol: float = DEFAULT_RANK_TOL) -> TangentSplit:
    """Rank and the four orthonormal bases attached to a linear map: one
    point of ``split_tangents``."""
    A = np.asarray(A, dtype=float)
    if A.shape != (g2.dim, g1.dim):
        raise ValueError(f"matrix shape {A.shape} does not match metrics")
    (_, rank, B1, B2), = split_tangents(A[None], g1[None], g2[None], tol)
    return TangentSplit.of(rank, B1[0], B2[0], g1, g2)


def split_tangents(A, g1: InnerProduct, g2: InnerProduct,
                   tol: float = DEFAULT_RANK_TOL) -> list:
    """The splits of the maps A[i] of a stack (N, m, n) between the inner
    products g1[i] and g2[i], grouped by rank: one (at, rank, B1, B2) per
    rank, in increasing rank (none for an empty stack), where ``at`` indexes
    the points of that rank (a slice of all of them when the rank is
    constant), B1 = [h | k] stacks the g1-orthonormal horizontal, then
    kernel, columns at those points and B2 = [R | N] the g2-orthonormal
    range, then normal, columns.

    The map is whitened to M = L2^T A L1^{-T}; a Euclidean SVD of M then
    yields g1-orthonormal kernel/horizontal bases and g2-orthonormal
    range/normal bases.  Rank counts singular values above tol times the
    largest one, and tol must be a positive finite number.
    """
    if not 0 < tol < np.inf:
        raise ValueError(
            f"rank tolerance must be a positive finite number, got {tol!r}")
    U, s, Vt = np.linalg.svd(g2.cholesky.transpose(0, 2, 1) @ (A @ g1.frame))
    sigma_max = s[:, 0] if s.shape[1] else np.zeros(len(A))
    ranks = np.where(sigma_max > 0,
                     np.sum(s > tol * sigma_max[:, None], axis=1), 0)
    V = Vt.transpose(0, 2, 1)
    constant = (ranks == ranks[:1]).all()
    splits = []
    for rank in ranks[:1] if constant else np.unique(ranks):
        at = slice(None) if constant else np.flatnonzero(ranks == rank)
        splits.append((at, int(rank), _unwhitened(g1, at, rank, V[at]),
                       _unwhitened(g2, at, rank, U[at])))
    return splits


def _basis(columns, metric: InnerProduct) -> SubspaceBasis:
    """A basis whose columns were checked orthonormal with their stack."""
    return _trusted(SubspaceBasis, columns=columns, metric=metric)


def _unwhitened(ip: InnerProduct, at, rank, whitened) -> np.ndarray:
    """The whitened columns mapped back through the frames L^{-T} of ip at
    the points ``at`` of the stack, with signs fixed; the first ``rank``
    columns and the rest are checked orthonormal as two bases."""
    columns = _fix_signs(ip.frame[at] @ whitened)
    _check_orthonormal(columns, ip.matrix[at], rank,
                       np.arange(len(ip.matrix))[at])
    return columns


def project(v, basis: SubspaceBasis) -> np.ndarray:
    """Orthogonal projection of v onto the span of the basis."""
    v = np.asarray(v, dtype=float)
    if basis.dim == 0:
        return np.zeros_like(v)
    coefficients = basis.columns.T @ basis.metric.matrix @ v
    return basis.columns @ coefficients
