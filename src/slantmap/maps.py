"""Riemannian-map analysis: frames, splittings, second fundamental form.

The second fundamental form is evaluated through its closed tensorial
coordinate formula

    (sff)^g_ij = d_i d_j F^g - Gamma1^k_ij d_k F^g
                 + Gamma2^g_ab(F(p)) d_i F^a d_j F^b,

so no vector-field extensions enter; jets supply every derivative exactly.
The form is the covariant derivative of F_*: with nabla J it gives, as
tensors, nabla Q and the defects of omega and phi (``section_derivatives``).

A ``FrameStack`` holds what is known at the points of one rank in a block
of points, stacked along a leading point axis, built from stacked jets
(``frame_block``); each derived quantity is a member formed once over the
stack on first use, whose one definition serves the ``PointFrame``
``stack.row(i)`` too.  The split is held flat: the rank, both metrics and
the orthonormal frames B1 = [h | k] and B2 = [R | N] are fields, and
``split`` is a view of them by basis name.  The checks read F_*, J, the
sff, nabla J and Q as components in B1 and B2, where F_* is
[[Sigma, 0], [0, 0]], the projector onto the range is diag(I_r, 0),
adjoints are transposes and g-norms Euclidean norms; chart coordinates come
back through one frame product where a vector leaves the library.  Each
pointwise quantity has this one route: no member forms phi, omega, B, C, Q,
a shape operator or the fiber mean curvature in chart coordinates.  A
``Sample`` is the analysis context of one run, whose stacks are built once,
each paired with its sample indices (``rows``), and every check is a
reduction over the pairs of its residuals, bare functions of a stack
(``Sample.check``).  ``Sample.target`` is the one evaluation of F alone
at the sample points: the target chart at the images, which carries F's
failure.  A map with affine components between constant charts
(``MapSpec.constant_frame``) has one frame wherever F is finite, which its
MapSpec keeps, read-only, for every analysis of the map.

A MapSpec keeps, by the one rule of ``charts.kept`` (formed once without
error, read-only, replaced whole), that one stack (for the last rank
tolerance) with every member formed on it, and ``point_frame``'s row (for
the last point) with no member; ``Sample.keep`` alone decides what else the
one stack keeps: each check's residual norms (for the last key) and the
classification's statistics (for the last sample size).  Its charts keep
their own (``charts``), and a dropped spec takes all of it along.  A
catalog spec is shared by the process, so a caller that patches or counts
what forms these takes a fresh spec over fresh charts,
``replace(spec, source=replace(spec.source), target=replace(spec.target))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar, Optional, Sequence

import numpy as np

from .charts import (ChartError, ChartFields, ChartManifold, _read_only,
                     evaluate_prefix, kept)
from .expressions import Expression, Formulas, eval_jets, parse_expression
from .expressions import eval_jet2  # noqa: F401  (test_perfbench.py expects it here)
from .linalg import (InnerProduct, TangentSplit, _trusted, apply_along, lift,
                     rows_at, split_tangents)
from .result import (DEFAULT_ANGLE_TOL, DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL,
                     CheckResult, checked, point_norms, worst_norms)


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
        parsed = Formulas(
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

    @cached_property
    def constant_frame(self) -> bool:
        """Whether the frame is the same at every point where F is finite:
        both charts are constant and every component is affine."""
        return (self.source.constant and self.target.constant
                and all(c.affine for c in self.components))


def map_point(spec: MapSpec, p) -> np.ndarray:
    return eval_jets(spec.components, p, 0)[0]


def differential(spec: MapSpec, p) -> np.ndarray:
    """Jacobian matrix, entry (g, i) = d_i F^g at p: the frame's jets."""
    return eval_jets(spec.components, p, 1)[1]


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


# Why an adapted frame does not close at a point: failure code k is entry k - 1.
ADAPTED_FRAME_FAILURES = (
    "horizontal space exhausted before the frame closed",
    "Q vanishes for an anti-invariant map: no adapted frame")


def _directions(X, lead: tuple, n: int, name: str) -> np.ndarray:
    """X as floats when, after the leading axes ``lead`` of a stack, it is
    a vector of dimension n or a matrix of such columns; else a ValueError
    that names X and its shape."""
    X = np.asarray(X, dtype=float)
    rest = X.shape[len(lead):]  # n is a vector's last axis, a matrix's last but one
    if X.shape[:len(lead)] != lead or rest[-2:][:1] != (n,):
        matrix = ", ".join(map(str, lead + (n, "k")))
        raise ValueError(f"{name} has shape {X.shape}, expected "
                         f"{lead + (n,)} or ({matrix})")
    return X


def _bilinear(tensor, X, Y) -> np.ndarray:
    """tensor(x_a, y_b) at [..., a, :, b] for the columns x_a of X and y_b
    of Y; a vector X or Y (one per point, for a stack) drops its axis."""
    lead, n = tensor.shape[:-3], tensor.shape[-1]
    X, Y = (_directions(Z, lead, n, name) for Z, name in ((X, "X"), (Y, "Y")))
    x_vector, y_vector = (Z.ndim == tensor.ndim - 2 for Z in (X, Y))
    if x_vector:
        X = X[..., None]
    if y_vector:
        Y = Y[..., None]
    out = apply_along(np.swapaxes(X, -1, -2), tensor, 1) @ lift(Y, X.ndim + 1)
    if y_vector:
        out = out[..., 0]
    if x_vector:
        out = out[..., 0, :] if y_vector else out[..., 0, :, :]
    return out


class _member:
    """A FrameStack member: formed on first use and kept, read-only on a
    stack so that no check changes what a later one reads (a PointFrame's
    are its own).  Two threads may form it twice, alike; none takes a lock."""

    def __init__(self, func):  # func, as a cached_property names it
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, frames, owner=None):
        if frames is None:
            return self
        value = self.func(frames)
        if type(frames) is FrameStack:
            _read_only(value)
        frames.__dict__[self.name] = value
        return value


@dataclass(eq=False)
class FrameStack:
    """The frames of the points of one rank in a block, each field stacked
    along a leading point axis, and every derived quantity formed once over
    the stack on first use and read-only; each member serves a row
    (``row(i)``) as well.  ``len(stack)`` counts the frames held: one for all
    the sample indices paired with a constant-frame stack.  A constant
    chart's fields (``ChartManifold.constant``) are its one kept row, which
    stands for every row (``rows_at``) and which the arithmetic broadcasts,
    and its Christoffel symbols and nabla J, exactly zero, are None, so no
    member forms a term of them.  Vectors are the columns of (..., m, k)
    arrays, and the extra axes of an argument sit between the point axis and
    the matrix axes.  ``adapted_*``, ``j_blocks``, ``q`` and
    ``horizontal_*`` are in B1 and B2, the rest in chart coordinates; h is
    ``source_basis[..., :rank]``, k the rest, and R and N likewise in
    ``target_basis``."""

    FIELDS: ClassVar[tuple]  # the field names, in order
    points: np.ndarray      # (N, n)
    images: np.ndarray      # (N, m)
    jacobian: np.ndarray    # (N, m, n)
    rank: int
    g_source: InnerProduct  # stacked over the points, or one row
    g_target: InnerProduct
    source_basis: np.ndarray  # B1 = [h | k], g1-orthonormal, (N, n, n)
    target_basis: np.ndarray  # B2 = [R | N], g2-orthonormal, (N, m, m)
    gamma_source: Optional[np.ndarray]  # (N, n, n, n)
    sff: np.ndarray         # (N, m, n, n)
    complex_structure: Optional[np.ndarray]  # (N, m, m) or one row
    nabla_j: Optional[np.ndarray]  # [:, c, a, b] = (nabla_c J)^a_b

    def __len__(self) -> int:
        return len(self.points)

    def row(self, i: int) -> "PointFrame":
        """Frame i of the stack, its members formed anew from the row of
        each field (the rank whole)."""
        values, frame = self.__dict__, object.__new__(PointFrame)
        frame.__dict__.update({name: rows_at(values[name], i)
                               for name in self.FIELDS if name != "rank"},
                              rank=self.rank)
        return frame

    @cached_property
    def split(self) -> TangentSplit:
        """The kernel, horizontal, range and normal bases by name: a view of
        slices of B1 and B2 with their metrics."""
        return TangentSplit.of(self.rank, self.source_basis, self.target_basis,
                               self.g_source, self.g_target)

    @_member
    def source_coframe(self) -> np.ndarray:
        """C1 = B1^T G1 = B1^-1: a source vector's components in B1."""
        return np.swapaxes(self.source_basis, -1, -2) @ self.g_source.matrix

    @_member
    def target_coframe(self) -> np.ndarray:
        """C2 = B2^T G2 = B2^-1: a target vector's components in B2."""
        return np.swapaxes(self.target_basis, -1, -2) @ self.g_target.matrix

    def _angles(self, w) -> np.ndarray:
        """Angle in [0, pi/2] between J F_*X and the range of F_*, for each
        column w of the components of J F_*X in B2, as atan2(|omega part|,
        |phi part|): accurate at both extremes, where an arccos is not."""
        r = self.rank
        return np.arctan2(np.linalg.norm(w[..., r:, :], axis=-2),
                          np.linalg.norm(w[..., :r, :], axis=-2))

    def adapted_frames(self, angle_tol: float = DEFAULT_ANGLE_TOL):
        """Orthonormal horizontal frame {e, sec(theta) Q e, ...} in h, and
        its failure code, 0 where the frame closes (ADAPTED_FRAME_FAILURES).

        Greedy construction: pick a horizontal unit vector, append its
        normalized Q-partner, re-orthogonalize the remaining horizontal
        directions, repeat.  Fails for anti-invariant maps, where Q vanishes.
        """
        r = self.rank
        if r == 0:
            raise MapDefinitionError("map has rank zero: no horizontal space")
        candidates = np.broadcast_to(np.eye(r), self.q.shape)
        failure = np.zeros(candidates.shape[:-2], dtype=int)
        chosen: list = []
        while len(chosen) < r:
            residuals = candidates
            for _ in range(2):
                for b in chosen:
                    inner = b[..., None, :] @ residuals
                    residuals = residuals - b[..., :, None] * inner
            norms = np.linalg.norm(residuals, axis=-2)
            best = norms.argmax(axis=-1)[..., None]
            norm = np.take_along_axis(norms, best, -1)[..., 0]
            exhausted = norm < 1e-10
            e = (np.take_along_axis(residuals, best[..., None, :], -1)
                 / np.where(exhausted, 1.0, norm)[..., None, None])
            theta = self._angles(self.adapted_j_pushforward[..., :r] @ e)[..., 0]
            code = np.where(exhausted, 1, np.where(theta >= math.pi / 2 - angle_tol,
                                                   2, 0))
            failure = np.where(failure > 0, failure, code)
            chosen.append(e[..., 0])
            chosen.append((self.q @ e)[..., 0] / np.cos(theta)[..., None])
        return np.stack(chosen[:r], axis=-1), failure

    @_member
    def angle_ranges(self) -> np.ndarray:
        """The least and the largest slant angle over all horizontal
        directions, at [..., 0] and [..., 1] (at each point, for a stack).

        For unit range coordinates u of F_*X, cos and sin of the angle of X
        are |T u| and |W u|, where T and W are the range-range and
        normal-range blocks of J.  Since T^T T + W^T W = I, the singular
        values c of T and s of W pair up, and the extremes are atan2(s_min,
        c_max) and atan2(s_max, c_min), with s_min = 0 when W has fewer rows
        than columns.  atan2 keeps an angle at exactly 0 or pi/2 where W or
        T is 0.
        """
        r = self.rank
        c = np.linalg.svd(self.j_blocks[..., :r, :r], compute_uv=False)
        s = np.linalg.svd(self.j_blocks[..., r:, :r], compute_uv=False)
        if s.shape[-1] < r:
            s = np.concatenate([s, np.zeros(s.shape[:-1] + (1,))], axis=-1)
        return np.stack([np.arctan2(s[..., -1], c[..., 0]),
                         np.arctan2(s[..., 0], c[..., -1])], axis=-1)

    def sff_value(self, X, Y) -> np.ndarray:
        """sff(X, Y); a matrix Y gives one column per column of Y, and a
        matrix X one leading entry per column of X."""
        return _bilinear(self.sff, X, Y)

    @_member
    def adapted_jacobian(self) -> np.ndarray:
        """C2 F_* B1: [[Sigma, 0], [0, 0]] up to rounding, (N, m, n)."""
        return self.target_coframe @ self.jacobian @ self.source_basis

    @_member
    def j_blocks(self) -> np.ndarray:
        """C2 J B2: the blocks [:r, :r] (phi on the range), [r:, :r]
        (omega), [:r, r:] (B) and [r:, r:] (C)."""
        return self.target_coframe @ require_complex_structure(self) @ self.target_basis

    @_member
    def adapted_j_pushforward(self) -> np.ndarray:
        """C2 J F_* B1: rows [:r] are phi, rows [r:] omega, (N, m, n)."""
        return self.j_blocks @ self.adapted_jacobian

    @_member
    def adapted_q(self) -> np.ndarray:
        """Q = F_*^T phi in B1, (N, n, n)."""
        r = self.rank
        return (np.swapaxes(self.adapted_jacobian[..., :r, :], -1, -2)
                @ self.adapted_j_pushforward[..., :r, :])

    @_member
    def q(self) -> np.ndarray:
        """Matrix of Q in the orthonormal horizontal frame; skew-symmetric."""
        return self.adapted_q[..., :self.rank, :self.rank]

    @_member
    def squares(self) -> tuple:
        """phi^2 on the range (in the range frame), Q^2 and their traces (2, N)."""
        phi = self.j_blocks[..., :self.rank, :self.rank]
        squares = phi @ phi, self.q @ self.q
        return (*squares, np.trace(squares, axis1=-2, axis2=-1))

    @_member
    def adapted_sff(self) -> np.ndarray:
        """C2 sff(B1 ., B1 .), (N, m, n, n)."""
        B1 = lift(self.source_basis, self.sff.ndim)
        return (np.swapaxes(B1, -1, -2)
                @ apply_along(self.target_coframe, self.sff, 0) @ B1)

    @property
    def horizontal_sff(self) -> np.ndarray:
        """adapted_sff(h_a, .) at [..., a, :, :], (N, r, m, n): a view."""
        return np.moveaxis(self.adapted_sff[..., :self.rank, :], -2, -3)

    @_member
    def adapted_nabla_j(self) -> Optional[np.ndarray]:
        """C2 (nabla_{F_*h_a} J) B2 at [..., a, :, :], (N, r, m, m); None
        where nabla J is."""
        return _nabla_j_along(self, self.source_basis[..., :self.rank])

    @_member
    def sigma_inverse(self) -> np.ndarray:
        """Sigma^-1 by one r x r solve per stack."""
        sigma = self.adapted_jacobian[..., :self.rank, :self.rank]
        return np.linalg.solve(sigma, np.broadcast_to(np.eye(self.rank), sigma.shape))

    @_member
    def horizontal_connection(self) -> np.ndarray:
        """C1 Gamma1(h_a, h_b) at [..., a, :, b], (N, r, n, r): zero where
        Gamma1 is None."""
        h = self.source_basis[..., :self.rank]
        if self.gamma_source is None:
            return np.zeros(h.shape[:-2] + (self.rank,) + h.shape[-2:])
        gamma = apply_along(self.source_coframe, self.gamma_source, 0)
        return apply_along(np.swapaxes(h, -1, -2), gamma, 1) @ lift(h, gamma.ndim)

    @_member
    def horizontal_derivatives(self) -> "SectionDerivatives":
        """section_derivatives along h_a at h_b, at [..., a, :, b] and in
        the adapted frames: nabla Q in B1 (N, r, n, r), the omega defect in
        N (N, r, m - r, r) and the phi defect in B2 (N, r, m, r)."""
        return _adapted_derivatives(self, self.horizontal_sff,
                                    self.adapted_nabla_j, slice(0, self.rank))

    @_member
    def tension(self) -> np.ndarray:
        """Tension field: the metric trace of the second fundamental form."""
        inverse = self.g_source.inverse
        return (self.sff * inverse[..., None, :, :]).sum(axis=(-2, -1))


FrameStack.FIELDS = tuple(f.name for f in fields(FrameStack))


# slant_angle's kernel: the directions whose horizontal part is at most
# KERNEL_TOL times their g1-norm.  Beside such an F_*X, the rounding of F_*
# on X's kernel part (about eps |X|) is no longer negligible: for a
# Riemannian map it moves the angle by up to about eps / KERNEL_TOL (2e-8)
# radians, below the default angle tolerance.
KERNEL_TOL = 1e-8


class PointFrame(FrameStack):
    """Everything the per-point analysis needs at one point: ``stack.row(i)``,
    each field without its point axis and each member formed from those
    fields, and what makes sense at one point only."""

    @property
    def point(self) -> np.ndarray:
        return self.points

    @property
    def image(self) -> np.ndarray:
        return self.images

    def slant_angle(self, X) -> float:
        """Angle in [0, pi/2] between J F_*X and the range of F_*, for a
        finite direction X outside the kernel: its horizontal components in
        B1 exceed KERNEL_TOL times its g1-norm (the norm of all of them)."""
        X = np.asarray(X, dtype=float)
        n = len(self.point)
        if X.shape != (n,):
            raise ValueError(f"direction has shape {X.shape}, expected ({n},)")
        size = np.abs(X).max()
        if not math.isfinite(size):
            raise ValueError(f"direction {X.tolist()} is not finite")
        if not 2.0 ** -300 < size < 2.0 ** 300:  # too large or small to square:
            X = np.ldexp(X, -np.frexp(size)[1])  # a power of two rounds nothing
        components = self.source_coframe @ X
        horizontal = components[:self.rank]
        if not horizontal @ horizontal > KERNEL_TOL ** 2 * (components @ components):
            raise ValueError("direction lies in the kernel of the differential "
                             f"at point {self.point.tolist()}")
        pushed = self.jacobian @ X
        w = self.target_coframe @ (require_complex_structure(self) @ pushed)
        return float(self._angles(w[:, None])[0])

    def operators(self, theta: Optional[float] = None) -> "PointOperators":
        """The blocks of J in the range-then-normal target frame, and Q; with
        an angle, also the sec(theta)-rescaled jtilde and jhat."""
        blocks, r = self.j_blocks, self.rank
        ops = PointOperators(phi=blocks[:r, :r], omega=blocks[r:, :r],
                             b=blocks[:r, r:], c=blocks[r:, r:], q=self.q,
                             point=self.point)
        if theta is not None:
            if abs(math.cos(theta)) < 1e-12:
                raise ValueError("sec(theta) undefined at angle pi/2")
            sec = 1.0 / math.cos(theta)
            ops.jtilde = sec * ops.phi
            ops.jhat = sec * ops.q
        return ops

    def adapted_frame(self, angle_tol: float = DEFAULT_ANGLE_TOL) -> np.ndarray:
        """Orthonormal horizontal frame {e, sec(theta) Q e, ...} at the point."""
        columns, failure = self.adapted_frames(angle_tol)
        if failure:
            raise ValueError(ADAPTED_FRAME_FAILURES[failure - 1])
        return self.source_basis[:, :self.rank] @ columns


def point_frame(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL) -> PointFrame:
    """The frame at p: a block of one.

    Repeated calls at one point share one build: the spec keeps the
    ``row(0)`` of the one-point stack of the last (p, rank_tol) it was asked
    for (``kept``), p by its float64 bytes, and every call returns a new
    frame holding that row's fields, whose derived members are formed anew
    on it and never on the kept row.  The arrays of the row, and so the
    fields of a returned frame, are read-only.  A build that raises is not
    kept, and a spec that is dropped takes its row with it."""
    point = np.array(p, dtype=float)  # a copy: the kept row holds it
    n = spec.source.dim
    if point.shape != (n,):
        raise ValueError(f"point has shape {point.shape}, expected ({n},)")
    row = kept(spec, "_point_frame", (point.tobytes(), rank_tol),
               lambda: frame_block(spec, point[None], rank_tol)[0][1].row(0))
    return _trusted(PointFrame, {name: vars(row)[name] for name in FrameStack.FIELDS})


def frame_block(spec: MapSpec, points, rank_tol: float = DEFAULT_RANK_TOL,
                target: Optional[ChartFields] = None, start: int = 0) -> list:
    """(rows, stack) per rank among a stack of points (N, n): a FrameStack
    built from stacked jets with one batched factorisation of each kind, and
    the sample indices of its points.  points[i] is the point start + i of
    its sample and of ``target``, the target chart at the images (evaluated
    here when None).  Where the frame is the same at every point
    (``MapSpec.constant_frame``) and ``target`` covers the block, so that F
    is finite on it, one stack stands for every row: the map's, built at the
    block's first point and kept on the spec for the rank tolerance."""
    if (spec.constant_frame and len(points) > 0 and target is not None
            and len(target.points) >= start + len(points)):
        # one rank, so ``at`` takes every row; a copy, since the spec keeps it
        return [(np.arange(start, start + len(points)), kept(
            spec, "_kept_frame", rank_tol, lambda: _frame_stacks(
                spec, points[:1].copy(), rank_tol, target, start)[0][1]))]
    return _frame_stacks(spec, points, rank_tol, target, start)


def _frame_stacks(spec, points, rank_tol, target, start) -> list:
    """``frame_block``'s (rows, stack) pairs, built: one stack per rank.  A
    constant chart gives one row of each field, and None for its Christoffel
    symbols and nabla J, whose terms are zero.  The charts locate any metric
    that ``InnerProduct`` rejects, so the split raises no error of its own."""
    rows = np.arange(start, start + len(points))
    image, jac, hess = eval_jets(spec.components, points, 2)
    g1, gamma1 = spec.source.metric_at(points)
    if target is None:
        target, start = ChartFields(spec.target, image), 0
    stop = start + len(points)
    g2, gamma2 = target.metric(start, stop)
    groups = split_tangents(jac, g1, g2, rank_tol)
    sff = hess  # plus the Christoffel terms of each chart that varies
    if spec.source.constant:
        gamma1 = None
    else:
        sff = sff - apply_along(jac, gamma1, 0)
    if not spec.target.constant:
        sff = sff + lift(np.swapaxes(jac, 1, 2), 4) @ gamma2 @ lift(jac, 4)
    J = nabla = None
    if spec.target.complex_structure is not None:
        J, nabla = target.structure(start, stop)
        if spec.target.constant:
            nabla = None
    return [(rows[at], FrameStack(points[at], image[at], jac[at], rank,
                                  rows_at(g1, at), rows_at(g2, at), B1, B2,
                                  rows_at(gamma1, at), sff[at],
                                  rows_at(J, at), rows_at(nabla, at)))
            for at, rank, B1, B2 in groups]


# Wrappers over PointFrame members, kept (as are map_point and differential)
# because perfbench/tracer.py traces them by name.

def second_fundamental_form(spec: MapSpec, p, X, Y,
                            rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Vector in the target tangent space measuring connection mismatch at p."""
    return point_frame(spec, p, rank_tol).sff_value(X, Y)


def tension_field(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Metric trace of the second fundamental form at p."""
    return point_frame(spec, p, rank_tol).tension


# Most points whose frames are built in one stack.  The blocks' one job is to
# bound the memory that the stacked intermediates of a build take.
FRAME_BLOCK = 1024


class Sample:
    """Analysis context of one run: the sample points, the target chart at
    their images, which carries F's first failure (``target``), and the
    FrameStacks of their frames, built on first use in blocks of at most
    FRAME_BLOCK points (one stack per rank in a block), each paired with its
    sample indices and read by every check.  A failed build is kept and
    raised again at the same point, so each check fails where it would.  A
    constant frame (``MapSpec.constant_frame``) is one block: the map's kept
    stack, paired with every index up to F's first failing point."""

    def __init__(self, spec: MapSpec, points,
                 rank_tol: float = DEFAULT_RANK_TOL):
        self.spec = spec
        try:
            self.points = np.array(points, dtype=float)
        except ValueError:  # ragged rows, which have the shape named below
            self.points = np.array(points, dtype=object)
            if self.points.shape[1:] == (spec.source.dim,):
                raise  # a value that is not a number
        if self.points.shape == (0,):  # an empty sequence: the empty sample
            self.points = self.points.reshape(0, spec.source.dim)
        if self.points.shape[1:] != (spec.source.dim,):
            raise ValueError(f"points have shape {self.points.shape}, "
                             f"expected (N, {spec.source.dim})")
        self.rank_tol = rank_tol

    def __len__(self) -> int:
        return len(self.points)

    def stacks(self):
        """The (rows, stack) pairs in block order; a failed build raises
        after the pairs of the points before it."""
        pairs, failure = self._frames
        yield from pairs
        if failure is not None:
            raise failure

    def keep(self, stack, name: str, key, form):
        """form(), kept on stack under name for key (``kept``) when the stack
        is a kept frame's, which outlives this Sample; else formed anew."""
        return kept(stack, name, key, form) if self.spec.constant_frame else form()

    def point(self, stack, i: int) -> np.ndarray:
        """The sample point of row i of stack (of a kept frame's, point i)."""
        return (self.points if self.spec.constant_frame else stack.points)[i]

    def reduce(self, name: str, *forms, key=None):
        """The worsts of the ``point_norms`` of the entries form(stack), an
        array (len(stack), ...), of each form, and the first one's witness
        (``worst_norms``), in one walk of the stacks; key is the one
        sample-level value a form reads, which ``keep`` keys the norms by."""
        return worst_norms(self._parts(name, forms, key), self.points, len(forms))

    def check(self, name: str, tol: float, *forms, key=None, detail=None,
              reason=None) -> CheckResult:
        """The entry (``result.checked``) of the forms' ``reduce``."""
        return checked(name, tol, self._parts(name, forms, key), self.points,
                       len(forms), detail, reason)

    def _parts(self, name: str, forms, key) -> list:
        """(rows, each form's ``point_norms``) per stack, kept as "norms: " + name."""
        return [(rows, self.keep(s, "norms: " + name, key, lambda s=s: tuple(
            point_norms(form(s)) for form in forms))) for rows, s in self.stacks()]

    @cached_property
    def _frames(self):
        """The (rows, stack) pairs of every block up to the first failing
        point, and that point's error (None when every point has its frame).
        A constant frame's block is the whole sample, since it has one
        stack."""
        pairs: list = []
        block = max(len(self), 1) if self.spec.constant_frame else FRAME_BLOCK
        for start in range(0, len(self), block):
            built, failure = evaluate_prefix(
                lambda k: frame_block(self.spec, self.points[start:start + k],
                                      self.rank_tol, self.target, start),
                min(block, len(self) - start))
            pairs.extend(built)
            if failure is not None:
                return pairs, failure[1]
        return pairs, None

    @cached_property
    def target(self) -> ChartFields:
        """The target chart at the images, up to the first point where F
        fails, carrying that failure (``ChartFields``): the one evaluation of
        F alone at the sample points."""
        images, failure = evaluate_prefix(
            lambda k: eval_jets(self.spec.components, self.points[:k], 0)[0],
            len(self))
        return ChartFields(self.spec.target, images, failure)


# ---------------------------------------------------------------------------
# Complex-structure parts and their covariant derivatives

def require_complex_structure(frames) -> np.ndarray:
    if frames.complex_structure is None:
        raise ChartError("target chart has no complex structure")
    return frames.complex_structure


@dataclass
class SectionDerivatives:
    """The covariant derivatives along each direction X_a that the checks
    read, stacked along a direction axis (after the point axis, for a
    stack): entry [..., a, :, :] is the tensor (nabla_{X_a} Q) and the omega
    defect (I - P)(nabla_{X_a} omega) and phi defect (nabla_{X_a} phi) -
    sff(X_a, Q.), each a matrix acting on Y.  A defect vanishes everywhere
    iff its operator is parallel."""

    q: np.ndarray             # (..., k, n, n)
    omega_defect: np.ndarray  # (..., k, m, n)
    phi_defect: np.ndarray    # (..., k, m, n)


def section_derivatives(frames, X) -> SectionDerivatives:
    """Exact covariant derivatives along each column X_a of the (n, k)
    matrix X, at one frame, or at every point of a FrameStack with X of
    shape (n, k) or (N, n, k), in chart coordinates: ``_adapted_derivatives``
    with X taken in through C1 and each field out through B1 or B2 and C1."""
    X = np.asarray(X, dtype=float)
    lead, n = frames.jacobian.shape[:-2], frames.jacobian.shape[-1]
    if X.shape[:-1] not in ((n,), lead + (n,)):
        stacked = f" or ({lead[0]}, {n}, k)" if lead else ""
        raise ValueError(f"directions have shape {X.shape}, expected ({n}, k){stacked}")
    S = apply_along(np.swapaxes(frames.source_coframe @ X, -1, -2),
                    frames.adapted_sff, 1)
    adapted = _adapted_derivatives(frames, S, _nabla_j_along(frames, X))
    B1, C1, N, B2 = (lift(x, S.ndim) for x in (
        frames.source_basis, frames.source_coframe,
        frames.target_basis[..., frames.rank:], frames.target_basis))
    return SectionDerivatives(q=B1 @ adapted.q @ C1,
                              omega_defect=N @ adapted.omega_defect @ C1,
                              phi_defect=B2 @ adapted.phi_defect @ C1)


def _nabla_j_along(frames, X) -> Optional[np.ndarray]:
    """C2 (nabla_{F_*X_a} J) B2 at [..., a, :, :] for each column X_a; None
    where nabla J is."""
    if frames.nabla_j is None:
        return None
    nabla = apply_along(np.swapaxes(frames.jacobian @ X, -1, -2),
                        frames.nabla_j, 0)
    return (lift(frames.target_coframe, nabla.ndim) @ nabla
            @ lift(frames.target_basis, nabla.ndim))


def _adapted_derivatives(frames, S, nabla_J, y=slice(None)) -> SectionDerivatives:
    """The section derivatives in B1 (nabla Q), N (omega defect) and B2
    (phi defect), acting on B1[:, y], along the directions X_a whose
    S = C2 sff(X_a, B1 .) and nabla_J = C2 (nabla_{F_*X_a} J) B2 are stacked
    at [..., a, :, :] (None where nabla J is, a zero).  With A = C2 F_* B1,
    P = diag(I_r, 0), phi = P J A and Q = A^T phi, P moves by
    [[0, W^T], [W, 0]], W = S[r:, :r] Sigma^-1, nabla phi = nabla P J A +
    P (nabla J A + J S), nabla Q = S^T phi + A^T nabla phi, the omega defect
    is the normal rows of nabla J A + J S - nabla phi and the phi defect
    nabla phi - S Q: tensors, with no connection term."""
    r, ndim = frames.rank, S.ndim
    A, J, JA, Q, sigma_inverse = (lift(x, ndim) for x in (
        frames.adapted_jacobian, frames.j_blocks, frames.adapted_j_pushforward,
        frames.adapted_q, frames.sigma_inverse))
    W = S[..., r:, :r] @ sigma_inverse
    JAy = JA[..., y]
    nabla_JA = J @ S[..., y]
    if nabla_J is not None:
        nabla_JA = nabla_J @ A[..., y] + nabla_JA
    nabla_phi = np.concatenate(
        [nabla_JA[..., :r, :] + np.swapaxes(W, -1, -2) @ JAy[..., r:, :],
         W @ JAy[..., :r, :]], axis=-2)
    return SectionDerivatives(
        q=(np.swapaxes(S[..., :r, :], -1, -2) @ JAy[..., :r, :]
           + np.swapaxes(A, -1, -2) @ nabla_phi),
        omega_defect=nabla_JA[..., r:, :] - nabla_phi[..., r:, :],
        phi_defect=nabla_phi - S @ Q[..., y])


# ---------------------------------------------------------------------------
# Checks: each is the entry of residuals that it reads on the stacks
# (``Sample.check``), components in B1 and B2 whose Frobenius norm is the g-norm.

def is_riemannian_map(sample: Sample,
                      tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Gram-matrix test of the horizontal restriction plus rank constancy;
    the detail adds the largest |(|F_*|^2 - rank)|, small wherever the Gram
    test passes: a Riemannian map solves |F_*|^2 = rank F (Fischer)."""
    # the ranks of the stacks the fold reads (a kept residual is not formed)
    ranks = {s.rank for _, s in sample._frames[0]}
    return sample.check(
        "riemannian_map", tol,
        lambda s: gram_residual(s.adapted_jacobian[..., :s.rank]),
        lambda s: np.abs(np.square(s.adapted_jacobian).sum(axis=(-2, -1)) - s.rank),
        detail=lambda _, eikonal: {
            "rank": min(ranks) if len(ranks) == 1 else sorted(ranks),
            "rank_constant": len(ranks) <= 1, "eikonal_residual": eikonal},
        reason=lambda: ("rank varies across samples: not a subimmersion on this box"
                        if len(ranks) > 1 else None if ranks != {0} else
                        "differential vanishes on this box: rank is zero"))


def gram_residual(columns: np.ndarray) -> np.ndarray:
    """How far columns of components in an orthonormal frame (of each matrix
    of a stack) are from orthonormal: their Gram matrix less I."""
    return np.swapaxes(columns, -1, -2) @ columns - np.eye(columns.shape[-1])


def check_sff_range_perp(sample: Sample,
                         tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """The second fundamental form of horizontal pairs must be normal to the range."""
    return sample.check("sff_range_perp", tol,
                        lambda s: s.adapted_sff[..., :s.rank, :s.rank, :s.rank])


def fiber_trace(frames) -> np.ndarray:
    """The fiber mean curvature in B2: the trace of the sff over the kernel."""
    r = frames.rank
    if frames.jacobian.shape[-1] == r:
        raise MapDefinitionError("map is an immersion: the kernel is trivial")
    return np.trace(frames.adapted_sff[..., r:, r:], axis1=-2, axis2=-1)
