"""Linear algebra relative to symmetric positive-definite inner products.

Every metric problem is whitened through a Cholesky factor G = L L^T, which
an ``InnerProduct`` validates, the one place that does, and inverts once:
its g-orthonormal frame L^{-T} and G^{-1} serve every later step as matrix
products.  ``split_tangents`` turns them into the orthonormal frames
B1 = [h | k] and B2 = [R | N] of a map, plain arrays with the rank, in which
the checks read every tensor as components, so that the metric has done its
work once the split is built; a ``TangentSplit`` names their four blocks
(``TangentSplit.of``).  Basis vectors follow a fixed convention (decreasing
singular value, first significant component positive) so repeated runs
produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .result import DEFAULT_RANK_TOL, library_setting


class MetricError(ValueError):
    """Raised for inner products that are not symmetric positive-definite;
    ``index`` is the first failing matrix of a stack."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def _trusted(cls, fields: dict):
    """An instance of cls holding fields, without re-validating them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


SYM_TOL = 1e-12  # the largest |G - G^T| of a metric, relative to its largest entry
# the largest |B^T G B - I| of a basis B orthonormal under G, entry by entry
ORTHONORMAL_TOL = 1e-10
# the largest sum_i G_ii (G^{-1})_ii of a usable metric: a condition number
# that no scaling of the coordinates changes, n where G is diagonal.
# Rounding leaves the frame L^{-T}, and every basis built from it, within
# about 1.5 eps times it of g-orthonormal: within ORTHONORMAL_TOL / 3.
CONDITION_LIMIT = 1e5


class InnerProduct:
    """Gram matrix of a Riemannian metric at a point, or at each point of a
    stack (..., n, n); ``ip[i]`` is the inner product at point i.  The one
    rule for a usable metric: its Cholesky factorisation completes and its
    condition is within ``CONDITION_LIMIT``, which keeps the frame L^{-T}
    and the split's bases, that frame times orthogonal matrices, orthonormal
    within ``ORTHONORMAL_TOL`` unchecked.  A stack fails at its first matrix
    that is non-finite, asymmetric, has no factor or is too close to
    singular; eigenvalues only describe a matrix with no factor.  One
    subtraction G - G^T clears a finite, exactly symmetric stack, as every
    chart's metric is; only a stack it does not clear is searched for its
    first non-finite or asymmetric matrix."""

    @np.errstate(invalid="ignore", over="ignore")
    def __init__(self, matrix):
        G = np.asarray(matrix, dtype=float)
        if G.ndim < 2 or G.shape[-1] != G.shape[-2]:
            raise MetricError(f"inner product matrix must be square, got {G.shape}")
        stack = G.reshape((-1,) + G.shape[-2:])
        transposed = stack.transpose(0, 2, 1)
        failed, failure = len(stack), None  # the first failure and its message
        # x - y is 0 exactly where x = y (gradual underflow), and NaN where
        # either is NaN or both are one infinity: a stack with no nonzero
        # difference is finite and exactly symmetric, as every chart's is
        difference = stack - transposed
        if difference.any():
            scale = np.abs(stack).max(axis=(1, 2), initial=0.0)
            scale[scale == 0.0] = 1.0
            asymmetry = np.abs(difference).max(axis=(1, 2), initial=0.0)
            # the first matrix that is non-finite or not symmetric, and then
            # the first before it that fails a later test
            invalid = ~(np.isfinite(scale) & (asymmetry <= SYM_TOL * scale))
            if invalid.any():
                failed = int(invalid.argmax())
                failure = ("inner product matrix has non-finite entries"
                           if not np.isfinite(scale[failed])
                           else "inner product matrix is not symmetric")
        # halves first (exact above the subnormals): no finite sum overflows
        stack = 0.5 * stack + 0.5 * transposed
        try:
            cholesky = np.linalg.cholesky(stack[:failed])
        except np.linalg.LinAlgError:  # the first matrix with no factor
            for failed, part in enumerate(stack[:failed]):
                try:
                    np.linalg.cholesky(part)
                except np.linalg.LinAlgError:
                    break
            else:
                raise
            failure = ("inner product is not positive definite (min eigenvalue "
                       f"{np.linalg.eigvalsh(part).min():g})")
            cholesky = np.linalg.cholesky(stack[:failed])
        # L^{-T}, whose columns are g-orthonormal, and G^{-1} = L^{-T} L^{-1}
        frame = np.swapaxes(np.linalg.inv(cholesky), -1, -2)
        # sum_i G_ii (G^{-1})_ii, the frame's rows scaled by sqrt(G_ii) first
        diagonal = np.diagonal(stack[:failed], axis1=1, axis2=2)
        condition = np.square(np.sqrt(diagonal)[..., None] * frame).sum(axis=(1, 2))
        singular = ~(condition <= CONDITION_LIMIT)  # a NaN fails too
        if singular.any():
            failed = int(singular.argmax())
            failure = "inner product is not positive definite to working precision"
        if failed < len(stack):
            raise MetricError(failure, failed)
        self.matrix = stack.reshape(G.shape)
        self.cholesky = cholesky.reshape(G.shape)
        self.frame = frame.reshape(G.shape)
        self.inverse = self.frame @ np.swapaxes(self.frame, -1, -2)

    def __getitem__(self, i) -> "InnerProduct":
        return _trusted(InnerProduct,
                        {name: x[i] for name, x in self.__dict__.items()})

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


def rows_at(x, at):
    """x[at] for a field stacked over points, an array or an InnerProduct,
    where a one-row field (a constant chart's) stands for every row: its row
    at an integer ``at``, else itself, for the arithmetic to broadcast; None
    (a zero) stays None."""
    if x is None or len(x.matrix if isinstance(x, InnerProduct) else x) > 1:
        return None if x is None else x[at]
    return x[0] if isinstance(at, (int, np.integer)) else x


def norms_along(x: np.ndarray, axis) -> np.ndarray:
    """The Euclidean norms of x along an axis, or Frobenius norms along a
    pair of axes: np.linalg.norm(x, axis=axis) bit for bit, its own formula
    without its argument handling."""
    return np.sqrt(np.add.reduce(np.square(x), axis))


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
        gram = self.columns.T @ self.metric.matrix @ self.columns
        if (~(np.abs(gram - np.eye(self.dim)) <= ORTHONORMAL_TOL)).any():
            raise ValueError("basis columns are not orthonormal under the metric")

    @property
    def dim(self) -> int:
        return self.columns.shape[-1]


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
        or not) of ``split_tangents``, built from the frames of g1 and g2,
        which their conditioning keeps orthonormal."""
        return TangentSplit(rank, kernel=_basis(B1[..., rank:], g1),
                            horizontal=_basis(B1[..., :rank], g1),
                            range=_basis(B2[..., :rank], g2),
                            range_perp=_basis(B2[..., rank:], g2))


def _fix_signs(columns: np.ndarray) -> np.ndarray:
    """Each column of each matrix of a stack (N, n, k) with its first
    significant component made positive."""
    magnitude = np.abs(columns)
    largest = np.maximum(magnitude.max(axis=-2, keepdims=True, initial=0.0), 1e-300)
    floor = 1e-10 * largest  # a component above it is significant
    first = (magnitude > floor).argmax(axis=-2)
    # one gather: the first significant component of each column or, where
    # none is (a zero or non-finite column), one that is not below -floor
    gathered = columns[np.arange(len(columns))[:, None], first,
                       np.arange(columns.shape[-1])]
    return np.where((gathered < -floor[:, 0])[:, None, :], -columns, columns)


# a vector's residual below DEPENDENT_TOL times the largest norm: dependent
DEPENDENT_TOL = 1e-10


def gram_schmidt(vectors, ip: InnerProduct) -> SubspaceBasis:
    """Modified Gram-Schmidt with one re-orthogonalization pass; a vector
    dependent on those before it (``DEPENDENT_TOL``) is dropped."""
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
        if max_norm > 0 and norm >= DEPENDENT_TOL * max_norm:
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
    products g1[i] and g2[i] (a one-row inner product at every i), grouped
    by rank: one (at, rank, B1, B2) per rank, in increasing rank (none for an
    empty stack), where ``at`` indexes the points of that rank (a slice of
    all of them when the rank is constant), B1 = [h | k] stacks the
    g1-orthonormal horizontal, then kernel, columns at those points and
    B2 = [R | N] the g2-orthonormal range, then normal, columns.

    The map is whitened to M = L2^T A L1^{-T}, whose Euclidean SVD U S V^T
    gives the bases B1 = L1^{-T} V and B2 = L2^{-T} U: the frames of the
    inner products times orthogonal matrices, orthonormal within
    ``ORTHONORMAL_TOL`` by the inner products' ``CONDITION_LIMIT``.
    Rank counts singular values above tol times the largest one, and tol
    must be a positive number below 1.
    """
    tol = library_setting("rank_tol", tol, "rank tolerance")
    U, s, Vt = np.linalg.svd(g2.cholesky.transpose(0, 2, 1) @ (A @ g1.frame))
    sigma_max = s[:, 0] if s.shape[1] else np.zeros(len(A))
    ranks = np.where(sigma_max > 0,
                     np.sum(s > tol * sigma_max[:, None], axis=1), 0)
    V = Vt.transpose(0, 2, 1)
    constant = (ranks == ranks[:1]).all()
    splits = []
    for rank in ranks[:1] if constant else np.unique(ranks):
        at = slice(None) if constant else np.flatnonzero(ranks == rank)
        splits.append((at, int(rank), _fix_signs(rows_at(g1.frame, at) @ V[at]),
                       _fix_signs(rows_at(g2.frame, at) @ U[at])))
    return splits


def _basis(columns, metric: InnerProduct) -> SubspaceBasis:
    """A basis built from the frame of a usable metric, unchecked."""
    return _trusted(SubspaceBasis, {"columns": columns, "metric": metric})


def project(v, basis: SubspaceBasis) -> np.ndarray:
    """Orthogonal projection of v onto the span of the basis."""
    v = np.asarray(v, dtype=float)
    if basis.dim == 0:
        return np.zeros_like(v)
    coefficients = basis.columns.T @ basis.metric.matrix @ v
    return basis.columns @ coefficients
