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
(``frame_block``).  Each derived pointwise quantity (phi/omega, Q, the
tension field, the fiber mean curvature, nabla Q and the two defects on
horizontal pairs) is one of its members, formed once over the stack on
first use.
Each member has one definition, which serves a stack and the ``PointFrame``
``stack.row(i)`` of its point i alike.  A ``Sample`` is the analysis context
of one run, whose stacks are built once, and every check is a reduction
over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .charts import (ChartError, ChartFields, ChartManifold, _raise_first,
                     evaluate_prefix)
from .expressions import Expression, eval_jet2, eval_jets, parse_expression
from .linalg import (InnerProduct, TangentSplit, apply, apply_along, lift,
                     metric_adjoint, pairings, range_projector,
                     split_tangents)
from .result import (DEFAULT_ANGLE_TOL, DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL,
                     CheckResult, worst_residual)


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
    return eval_jets(spec.components, p, 0)[0]


def differential(spec: MapSpec, p) -> np.ndarray:
    """Jacobian matrix, entry (g, i) = d_i F^g at p."""
    return np.array([eval_jet2(c, p).grad for c in spec.components])


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


def _bilinear(tensor, X, Y) -> np.ndarray:
    """tensor(x_a, y_b) at [..., a, :, b] for the columns x_a of X and y_b
    of Y; a vector X or Y (one per point, for a stack) drops its axis."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
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


@dataclass(eq=False)
class FrameStack:
    """The frames of the points of one rank in a block, each field stacked
    along a leading point axis, and every derived quantity formed once over
    the stack on first use; each member serves a row (``row(i)``) as well.
    Vectors are the columns of (..., m, k) arrays, and the extra axes of an
    argument sit between the point axis and the matrix axes."""

    rows: np.ndarray        # index of each point in its sample
    points: np.ndarray      # (N, n)
    images: np.ndarray      # (N, m)
    jacobian: np.ndarray    # (N, m, n)
    split: TangentSplit     # with bases and metrics stacked over the points
    gamma_source: np.ndarray  # (N, n, n, n)
    sff: np.ndarray         # (N, m, n, n)
    complex_structure: Optional[np.ndarray]  # (N, m, m)
    nabla_j: Optional[np.ndarray]  # [:, c, a, b] = (nabla_c J)^a_b

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> "PointFrame":
        """The frame at point i of the stack, its members formed anew from
        the row of each field."""
        values = (getattr(self, f.name) for f in fields(self))
        return PointFrame(*(None if value is None else value[i]
                            for value in values))

    @property
    def rank(self) -> int:
        return self.split.rank

    @property
    def g_source(self) -> InnerProduct:
        """The source metric, that of the kernel and horizontal bases."""
        return self.split.kernel.metric

    @property
    def g_target(self) -> InnerProduct:
        """The target metric, that of the range and normal bases."""
        return self.split.range.metric

    def pushforward(self, X) -> np.ndarray:
        return apply(self.jacobian, X)

    def tangential(self, w) -> np.ndarray:
        """Range part of a target vector (of each column, for a matrix)."""
        return apply(self.range_projector, w)

    def normal(self, w) -> np.ndarray:
        """Part of a target vector normal to the range."""
        return np.asarray(w, dtype=float) - self.tangential(w)

    def phi_omega(self, X):
        """Split J F_*X into its range part (phi) and normal part (omega)."""
        phi = apply(self.phi, X)
        return phi, apply(self.j_pushforward, X) - phi

    def bc(self, V):
        """Split J V for a normal vector V into range part (B) and normal
        part (C)."""
        w = apply(require_complex_structure(self), V)
        b = self.tangential(w)
        return b, w - b

    def _angles(self, X) -> np.ndarray:
        """Angle in [0, pi/2] between J F_*X and the range of F_*, for each
        column of X.

        Computed as atan2(|omega part|, |phi part|), which stays accurate at
        both extremes where an arccos of the cosine ratio loses half the
        digits.
        """
        phi, omega = self.phi_omega(X)
        return np.arctan2(self.g_target.norms(omega), self.g_target.norms(phi))

    def adapted_frames(self, angle_tol: float = DEFAULT_ANGLE_TOL):
        """Orthonormal horizontal frame of the form {e, sec(theta) Q e, ...}
        and its failure code, 0 where the frame closes (see
        ADAPTED_FRAME_FAILURES).

        Greedy construction: pick a horizontal unit vector, append its
        normalized Q-partner, re-orthogonalize the remaining horizontal
        directions, repeat.  Fails for anti-invariant maps, where Q vanishes.
        """
        r = self.rank
        if r == 0:
            raise MapDefinitionError("map has rank zero: no horizontal space")
        G1 = self.g_source.matrix
        candidates = self.split.horizontal.columns
        failure = np.zeros(candidates.shape[:-2], dtype=int)
        chosen: list = []
        while len(chosen) < r:
            residuals = candidates
            for _ in range(2):
                for b in chosen:
                    inner = pairings(b[..., None], G1, residuals)
                    residuals = residuals - b[..., :, None] * inner[..., None, :]
            norms = self.g_source.norms(residuals)
            best = norms.argmax(axis=-1)[..., None]
            norm = np.take_along_axis(norms, best, -1)[..., 0]
            exhausted = norm < 1e-10
            e = (np.take_along_axis(residuals, best[..., None, :], -1)[..., 0]
                 / np.where(exhausted, 1.0, norm)[..., None])
            theta = self._angles(e[..., None])[..., 0]
            code = np.where(exhausted, 1, np.where(theta >= math.pi / 2 - angle_tol,
                                                   2, 0))
            failure = np.where(failure > 0, failure, code)
            chosen.append(e)
            chosen.append((self.adjoint_phi @ e[..., None])[..., 0]
                          / np.cos(theta)[..., None])
        return np.stack(chosen[:r], axis=-1), failure

    def sff_value(self, X, Y) -> np.ndarray:
        """sff(X, Y); a matrix Y gives one column per column of Y, and a
        matrix X one leading entry per column of X."""
        return _bilinear(self.sff, X, Y)

    def covariant_source(self, X, Y) -> np.ndarray:
        """Source connection applied to constant-coefficient extensions of X, Y,
        with matrices read as in sff_value."""
        return _bilinear(self.gamma_source, X, Y)

    @cached_property
    def adjoint(self) -> np.ndarray:
        """Metric adjoint of F_*, solved once per stack."""
        return metric_adjoint(self.jacobian, self.g_source, self.g_target)

    @cached_property
    def range_projector(self) -> np.ndarray:
        """g2-orthogonal projector onto the range of F_*."""
        return range_projector(self.split)

    @cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """Metric pseudo-inverse H (R^T G2 F_* H)^-1 R^T G2 of F_*."""
        H = self.split.horizontal.columns
        Rt_G2 = np.swapaxes(self.split.range.columns, -1, -2) @ self.g_target.matrix
        return H @ np.linalg.solve(Rt_G2 @ self.jacobian @ H, Rt_G2)

    @cached_property
    def j_pushforward(self) -> np.ndarray:
        """J F_* as an (m, n) matrix at each point."""
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
    def j_blocks(self) -> np.ndarray:
        """J in the orthonormal range-then-normal target frame: the blocks
        [:r, :r] (phi on the range), [r:, :r] (omega), [:r, r:] (B) and
        [r:, r:] (C)."""
        basis = np.concatenate([self.split.range.columns,
                                self.split.range_perp.columns], axis=-1)
        return (np.swapaxes(basis, -1, -2) @ self.g_target.matrix
                @ require_complex_structure(self) @ basis)

    @cached_property
    def q(self) -> np.ndarray:
        """Matrix of Q in the orthonormal horizontal frame; skew-symmetric."""
        h = self.split.horizontal.columns
        return np.swapaxes(h, -1, -2) @ self.g_source.matrix @ self.adjoint_phi @ h

    @cached_property
    def horizontal_derivatives(self) -> "SectionDerivatives":
        """section_derivatives on horizontal pairs: each field at
        [..., a, :, b] along h_a at h_b, shape (N, r, ., r)."""
        h = self.split.horizontal.columns
        return SectionDerivatives(*(x @ lift(h, x.ndim) for x in
                                    vars(section_derivatives(self, h)).values()))

    @cached_property
    def tension(self) -> np.ndarray:
        """Tension field: the metric trace of the second fundamental form."""
        inverse = self.g_source.inverse
        return (self.sff * inverse[..., None, :, :]).sum(axis=(-2, -1))

    @cached_property
    def fiber_mean_curvature(self) -> np.ndarray:
        """Trace of the second fundamental form over the kernel; zero iff the
        fiber through the point is minimal."""
        kernel = self.split.kernel.columns
        if kernel.shape[-1] == 0:
            raise MapDefinitionError("map is an immersion: the kernel is trivial")
        # sff[g, i, j] k[i, a] k[j, a], summed over i, j and a at once
        terms = (self.sff[..., None] * kernel[..., None, :, None, :]
                 * kernel[..., None, None, :, :])
        return terms.sum(axis=(-3, -2, -1))


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
        """Angle in [0, pi/2] between J F_*X and the range of F_*."""
        X = np.asarray(X, dtype=float)
        n = len(self.point)
        if X.shape != (n,):
            raise ValueError(f"direction has shape {X.shape}, expected ({n},)")
        column = X[:, None]
        if self.g_target.norms(self.pushforward(column))[0] == 0.0:
            raise ValueError("direction lies in the kernel of the differential "
                             f"at point {self.point.tolist()}")
        return float(self._angles(column)[0])

    def s_v(self, V, tol: float = DEFAULT_CHECK_TOL) -> np.ndarray:
        """Shape operator S[a, b] = g2(V, sff(h_a, h_b)) on the horizontal
        frame.  V must be normal to the range; a small stray range component
        is projected away and the norm restored, a large one is an error."""
        g2 = self.g_target
        norm = g2.norm(V)
        if norm == 0.0:
            return np.zeros((self.rank, self.rank))
        if g2.norm(self.tangential(V)) > tol * norm:
            raise ValueError("vector has a range component beyond tolerance")
        perp = self.normal(V)
        perp_norm = g2.norm(perp)
        if perp_norm > 0:
            perp = perp * (norm / perp_norm)
        h = self.split.horizontal.columns
        return perp @ g2.matrix @ self.sff_value(h, h)

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
        return columns


# The one-point stack that point_frame built last, as (spec, key, stack):
# read into locals and replaced whole, and only by a build that succeeded, so
# concurrent callers may build twice but never read a torn slot.
_last_frame: tuple = (None, None, None)


def point_frame(spec: MapSpec, p, rank_tol: float = DEFAULT_RANK_TOL) -> PointFrame:
    """The frame at p: a block of one.

    Repeated calls at one point share one build: the stack of the last
    (spec, p, rank_tol) is kept, spec by identity and p by its float64
    bytes, and every call returns a fresh ``row(0)`` of it, whose derived
    members are formed anew.  The arrays of that stack, and so those of a
    returned frame, are read-only.  A build that raises is not kept."""
    global _last_frame
    point = np.array(p, dtype=float)  # a copy: the kept stack holds it
    n = spec.source.dim
    if point.shape != (n,):
        raise ValueError(f"point has shape {point.shape}, expected ({n},)")
    key = (point.tobytes(), rank_tol)
    kept_spec, kept_key, stack = _last_frame
    if kept_spec is not spec or kept_key != key:
        stack, = frame_block(spec, point[None], rank_tol)
        _freeze(stack)
        _last_frame = (spec, key, stack)
    return stack.row(0)


def _freeze(stack: FrameStack) -> None:
    """Make every array of the stack read-only: its fields, and the basis
    columns of its split and every array of their metrics."""
    split = stack.split
    bases = (split.kernel, split.horizontal, split.range, split.range_perp)
    arrays = ([getattr(stack, f.name) for f in fields(stack)]
              + [basis.columns for basis in bases]
              + [x for basis in bases for x in vars(basis.metric).values()])
    for array in arrays:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False


def frame_block(spec: MapSpec, points, rank_tol: float = DEFAULT_RANK_TOL,
                target: Optional[ChartFields] = None, start: int = 0) -> list:
    """The FrameStacks of a stack of points (N, n), one per rank among them,
    built from stacked jets with one batched factorisation of each kind.
    points[i] is the point start + i of its sample, and the point start + i
    of ``target``, which holds the target chart at the images; without it
    the target chart is evaluated here."""
    rows = np.arange(start, start + len(points))
    image, jac, hess = eval_jets(spec.components, points, 2)
    g1, gamma1 = spec.source.metric_at(points)
    if target is None:
        target, start = ChartFields(spec.target, image), 0
    stop = start + len(points)
    g2, gamma2 = target.metric(start, stop)
    try:
        groups = split_tangents(jac, g1, g2, rank_tol)
    except ValueError as exc:  # a split too ill-conditioned to be orthonormal
        if not hasattr(exc, "index"):
            raise
        located = ValueError(f"{exc} at point {points[exc.index].tolist()}")
        located.index = exc.index
        raise located from None
    sff = (hess - apply_along(jac, gamma1, 0)
           + lift(np.swapaxes(jac, 1, 2), 4) @ gamma2 @ lift(jac, 4))
    J = nabla = None
    if spec.target.complex_structure is not None:
        J, nabla = target.structure(start, stop)
    return [FrameStack(rows[at], points[at], image[at], jac[at], split,
                       gamma1[at], sff[at],
                       None if J is None else J[at],
                       None if nabla is None else nabla[at])
            for at, split in groups]


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
    their images, and the FrameStacks of their frames, built on first use in
    blocks of at most FRAME_BLOCK points (one stack per rank in a block) and
    read by every check.  A failed build is kept and raised again at the same
    point, so each check fails where it would."""

    def __init__(self, spec: MapSpec, points,
                 rank_tol: float = DEFAULT_RANK_TOL):
        self.spec = spec
        self.points = np.array(points, dtype=float).reshape(len(points),
                                                            spec.source.dim)
        self.rank_tol = rank_tol

    def __len__(self) -> int:
        return len(self.points)

    def stacks(self):
        """The stacks in block order; a failed build raises after the stacks
        of the points before it."""
        stacks, failure = self._frames
        yield from stacks
        if failure is not None:
            raise failure

    def worst(self, residual):
        """worst_residual of residual(stack), an array (len(stack), ...) of
        the residual entries at each point of the stack, over the stacks."""
        return worst_residual([(s.rows, residual(s)) for s in self.stacks()],
                              self.points)

    @cached_property
    def _frames(self):
        """The stacks of every block up to the first failing point, and that
        point's error (None when every point has its frame)."""
        stacks: list = []
        for start in range(0, len(self), FRAME_BLOCK):
            built, failure = evaluate_prefix(
                lambda k: frame_block(self.spec, self.points[start:start + k],
                                      self.rank_tol, self.target, start),
                min(FRAME_BLOCK, len(self) - start))
            stacks.extend(built)
            if failure is not None:
                return stacks, failure[1]
        return stacks, None

    @cached_property
    def _images(self):
        return evaluate_prefix(
            lambda k: eval_jets(self.spec.components, self.points[:k], 0)[0],
            len(self))

    @property
    def images(self) -> np.ndarray:
        """F at every point, from the component values alone: no frames."""
        images, failure = self._images
        _raise_first(0, len(self), failure)
        return images

    @cached_property
    def target(self) -> ChartFields:
        """The target chart at the images, up to the first point where F
        fails."""
        return ChartFields(self.spec.target, self._images[0])


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
    matrix X, in one stacked pass: at one frame, or at every point of a
    FrameStack with X of shape (N, n, k).

    With A = F_*, P the projector onto its range and * the metric adjoint,
    phi = P J A, omega = (I - P) J A, Q = A* phi and nabla_X A = sff(X, .):

        nabla_X P     = K + K*,  K = (I - P) sff(X, .) A+,
        nabla_X phi   = (nabla_X P) J A + P (nabla_X J) A + P J sff(X, .),
        nabla_X omega = (nabla_X J) A + J sff(X, .) - nabla_X phi,
        nabla_X Q     = sff(X, .)* phi + A* nabla_X phi,

    all tensors, so no connection term enters.
    """
    X = np.asarray(X, dtype=float)
    sff_x = apply_along(np.swapaxes(X, -1, -2), frames.sff, 1)  # sff(X_a, .)
    # the point quantities, broadcast along the directions
    A, J, JA, phi, P, Q, A_plus, adjoint, G1_inv, G2, G2_inv = (
        lift(x, sff_x.ndim) for x in (
            frames.jacobian, require_complex_structure(frames),
            frames.j_pushforward, frames.phi, frames.range_projector,
            frames.adjoint_phi, frames.pseudo_inverse, frames.adjoint,
            frames.g_source.inverse, frames.g_target.matrix,
            frames.g_target.inverse))
    K = (np.eye(P.shape[-1]) - P) @ sff_x @ A_plus
    nabla_P = K + G2_inv @ (np.swapaxes(K, -1, -2) @ G2)
    nabla_J = apply_along(np.swapaxes(frames.jacobian @ X, -1, -2),
                          frames.nabla_j, 0)
    nabla_JA = nabla_J @ A + J @ sff_x
    nabla_phi = nabla_P @ JA + P @ nabla_JA
    nabla_omega = nabla_JA - nabla_phi
    return SectionDerivatives(
        q=(G1_inv @ (np.swapaxes(sff_x, -1, -2) @ G2 @ phi)
           + adjoint @ nabla_phi),
        omega_defect=nabla_omega - P @ nabla_omega,
        phi_defect=nabla_phi - sff_x @ Q)


# ---------------------------------------------------------------------------
# Checks: reductions over the stacks of a Sample

def is_riemannian_map(sample: Sample,
                      tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Gram-matrix test of the horizontal restriction plus rank constancy."""
    worst, witness = sample.worst(lambda s: gram_residual(
        s.jacobian @ s.split.horizontal.columns, s.g_target))
    ranks = sorted({s.rank for s in sample.stacks()})
    rank_constant = len(ranks) <= 1
    detail = {"rank": ranks[0] if rank_constant and ranks else ranks,
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


def gram_residual(columns: np.ndarray, metric: InnerProduct) -> np.ndarray:
    """How far the columns (of each matrix of a stack) are from orthonormal
    under the metric (at the same point): their Gram matrix less I."""
    gram = np.swapaxes(columns, -1, -2) @ metric.matrix @ columns
    return gram - np.eye(columns.shape[-1])


def check_sff_range_perp(sample: Sample,
                         tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """The second fundamental form of horizontal pairs must be normal to the range."""
    def residuals(s):
        h = s.split.horizontal.columns
        return s.g_target.norms(s.tangential(s.sff_value(h, h)))

    worst, witness = sample.worst(residuals)
    return CheckResult.from_residual("sff_range_perp", worst, tol,
                                     samples=len(sample), witness=witness)


def _sff_norms(frames, basis: np.ndarray) -> np.ndarray:
    """sff norms over the pairs of columns of ``basis``, at [..., a, b]."""
    return frames.g_target.norms(frames.sff_value(basis, basis))


def sff_residual(frames) -> np.ndarray:
    """sff norms over all pairs from the full orthonormal source basis."""
    return _sff_norms(frames, np.concatenate(
        [frames.split.kernel.columns, frames.split.horizontal.columns], axis=-1))


def fiber_geodesy_residual(frames) -> np.ndarray:
    """How far the fibers are from totally geodesic: sff over kernel pairs."""
    return _sff_norms(frames, frames.split.kernel.columns)


def horizontal_geodesy_residual(frames) -> np.ndarray:
    """Vertical component of the source connection on horizontal pairs,
    g1(nabla_X Y, W) over frame vectors."""
    h = frames.split.horizontal.columns
    kernel_covector = (np.swapaxes(frames.split.kernel.columns, -1, -2)
                       @ frames.g_source.matrix)
    return apply(kernel_covector, frames.covariant_source(h, h))
