"""Coordinate charts: metric fields, Levi-Civita connection, complex structures.

A chart is a single global coordinate patch.  Metric and complex-structure
entries are DSL expressions evaluated with jets; one metric jet per point
gives the metric and, with exact derivatives, its Christoffel symbols.
``ChartFields`` holds a chart evaluated once at each point of a stack, or
once per process for a chart whose entries are all constants: such a chart
keeps its fields at one point and the target checks' residual norms there,
which every later ChartFields of the chart reads.  ``kept`` is the one rule by
which a chart, a spec and a stack keep a value: formed once without error,
read-only, replaced whole, and held by its owner alone.  A chart shared by
a catalog spec keeps them for the process; ``dataclasses.replace(chart)``
is a fresh chart that has kept nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .expressions import (Expression, Formulas, _point_stack, eval_jets,
                          parse_expression)
from .expressions import eval_jet2  # noqa: F401  (test_perfbench.py expects it here)
from .linalg import (InnerProduct, MetricError, apply_along, lift, norms_along,
                     pairings)
from .result import DEFAULT_CHECK_TOL, CheckResult, checked, point_norms


class ChartError(ValueError):
    """Raised for structurally invalid charts or out-of-domain evaluations;
    ``index`` is the first failing point of a stack."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


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

    @cached_property
    def _upper_triangle(self):
        """The entries of the metric's upper triangle, which ``from_strings``
        makes the whole metric, and the (n, n) map from (i, j) to the entry
        of (min(i, j), max(i, j))."""
        rows, cols = np.triu_indices(self.dim)
        entry = np.empty((self.dim,) * 2, dtype=np.intp)
        entry[rows, cols] = entry[cols, rows] = np.arange(len(rows))
        return entry, Formulas(self.metric[i][j] for i, j in zip(rows, cols))

    def metric_jet(self, p):
        """The metric G at p and its derivatives dG[i, j, l] = d_l g_ij, from
        one jet of the upper triangle, gathered through its entry map; a
        stack of points (N, n) gives stacks."""
        entry, entries = self._upper_triangle
        values, grads = eval_jets(entries, p, 1)
        return values[..., entry], grads[..., entry, :]

    def metric_at(self, p) -> tuple[InnerProduct, np.ndarray]:
        """The metric at p and its Christoffel symbols, read from
        ``ChartFields``; at a stack of points (N, n), the InnerProduct of the
        stack and Gamma (N, n, n, n), one row for a constant chart, and the
        error of its first failing point."""
        points, stack = _point_stack(p, self.dim)
        ip, gamma = ChartFields(self, stack).metric()
        return (ip[0], gamma[0]) if points.ndim == 1 else (ip, gamma)

    def complex_structure_at(self, p) -> np.ndarray:
        """J at p (at each point of a stack)."""
        return self.complex_structure_jet(p)[0]

    def complex_structure_jet(self, p):
        """J at p and its coordinate derivatives dJ[i, a, b] = d_i J^a_b; a
        stack of points (N, n) gives stacks."""
        if self.complex_structure is None:
            raise ChartError("chart has no complex structure")
        values, grads = eval_jets(self._structure_entries, p, 1)
        lead = values.shape[:-1]
        return (values.reshape(lead + (self.dim,) * 2),
                grads.swapaxes(-1, -2).reshape(lead + (self.dim,) * 3))

    @cached_property
    def _structure_entries(self) -> Formulas:
        return Formulas(e for row in self.complex_structure for e in row)

    @cached_property
    def constant(self) -> bool:
        """Whether every metric and J entry compiles to a float: the chart is
        then the same at every point."""
        return all(isinstance(e.compiled, float)
                   for row in self.metric + (self.complex_structure or ())
                   for e in row)

    def _kept_fields(self, stack) -> Optional["ChartFields"]:
        """For a constant chart, its ChartFields at one point, which hold at
        every point: evaluated on first use at the stack's first point, as
        any chart is, and kept once that succeeds.  None for a varying chart,
        and, until one is kept, for an empty stack or a failing evaluation."""
        def form():
            fields = object.__new__(ChartFields)
            fields.chart, fields.points = self, stack[:1].copy()
            if len(stack):
                fields._evaluate_metric()
                if fields._metric_failure is None and (
                        self.complex_structure is None or fields._structure[2] is None):
                    return fields
        return kept(self, "_kept", None, form) if self.constant else None


def _parse_matrix(entries, dim: int, what: str):
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise ChartError(f"{what} must be a {dim}x{dim} array of expressions")
    return tuple(
        tuple(e if isinstance(e, Expression) else parse_expression(str(e), dim)
              for e in row)
        for row in entries)


def christoffel(inverse, dG) -> np.ndarray:
    """Levi-Civita symbols Gamma[k, i, j] from the inverse metric ``inverse``
    (g^{kl}) and dG[i, j, l] = d_l g_ij (symmetric in i, j, and so is Gamma):
    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).  Stacks of
    matrices along leading axes give a stack of symbols; the index
    permutations are fixed swaps of the last three axes."""
    # lower[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    swapped = dG.swapaxes(-3, -2)  # [j, i, l]
    lower = ((swapped.swapaxes(-2, -1) + swapped)
             - dG.swapaxes(-2, -1).swapaxes(-3, -2))
    return 0.5 * apply_along(inverse, lower, 0)


def nabla_j(J, dJ, gamma) -> np.ndarray:
    """(nabla_i J)^a_b = d_i J^a_b + Gamma^a_ic J^c_b - Gamma^c_ib J^a_c at
    [..., i, a, b], for stacks of J, of dJ[..., i, a, b] = d_i J^a_b and of
    the Christoffel symbols Gamma at the same points."""
    # the connection terms come as [..., a, i, b]
    return (dJ + (gamma @ J[..., None, :, :]).swapaxes(-3, -2)
            - apply_along(J, gamma, 0).swapaxes(-3, -2))


def evaluate_prefix(evaluate, count: int):
    """(evaluate(count), None) when it succeeds; else (evaluate(k), (k,
    error)) for the first index k where evaluation fails and the error raised
    there.  evaluate(k) evaluates indices 0..k-1, and an error it raises
    names a failing index as its ``index`` (0 when it has none); the indices
    before it are evaluated next, until an evaluation succeeds.  An error of
    evaluate(0), which has no indices before it, is raised."""
    failure = None
    while True:
        try:
            return evaluate(count), failure
        except Exception as exc:
            if not count:
                raise
            count = getattr(exc, "index", 0)
            failure = count, exc


class ChartFields:
    """A chart's metric and complex structure at each point of a stack (N,
    n), every entry evaluated once per point with its first derivatives, the
    metric's InnerProduct and Christoffel symbols, and nabla J; J and nabla J
    are evaluated on first read.  Each field is evaluated up to the first
    point where it fails, and that failure, kept as (index, error), is raised
    by whatever reads the field there.  A stack of images up to the first
    point where the map fails carries that failure, (N, error), which every
    read raises after any earlier failure of the chart.  ``held`` is the
    fields whose arrays hold the values: these, or for a constant chart
    (``ChartManifold.constant``) that evaluates, the one point it keeps,
    whose read-only one-row arrays ``metric`` and ``structure`` hand out
    themselves at any count of points, a row that stands for every row
    (``linalg.rows_at``), and which keeps, by ``kept``, the residual norms
    of the two target checks, which read the chart through ``metric`` and
    ``structure`` as the frames do."""

    _metric_failure = None  # a kept point has none
    _kept: Optional["ChartFields"] = None

    def __init__(self, chart: ChartManifold, points, failure=None):
        self.chart = chart
        self.points = np.asarray(points, dtype=float).reshape(len(points), chart.dim)
        self._metric_failure = failure  # the points' own, past the last one
        self._kept = chart._kept_fields(self.points)
        if self._kept is None:
            self._evaluate_metric()

    @property
    def held(self) -> "ChartFields":
        return self if self._kept is None else self._kept

    def _evaluate_metric(self) -> None:
        """Evaluate the metric and its Christoffel symbols at every point."""
        (G, dG), failure = evaluate_prefix(
            lambda k: self.chart.metric_jet(self.points[:k]), len(self.points))
        self._metric_failure = failure or self._metric_failure
        try:  # the metric up to the first point where it is not positive definite
            self._ip = InnerProduct(G)
        except MetricError as exc:
            point = self.points[exc.index].tolist()
            self._metric_failure = (exc.index, ChartError(
                f"metric is not positive definite at {point}: {exc}", exc.index))
            self._ip = InnerProduct(G[:exc.index])
        self._gamma = christoffel(self._ip.inverse, dG[:len(self._ip.matrix)])

    @cached_property
    def _structure(self) -> tuple:
        """(J, nabla J, failure): J evaluated at every point up to its first
        failure, and nabla J where the metric is known too."""
        if self.held is not self:
            return self.held._structure
        (J, dJ), failure = evaluate_prefix(
            lambda k: self.chart.complex_structure_jet(self.points[:k]),
            len(self.points))
        known = min(len(J), len(self._gamma))  # where both are known
        return J, nabla_j(J[:known], dJ[:known], self._gamma[:known]), failure

    def metric(self, lo: int = 0, hi: Optional[int] = None):
        """(InnerProduct, Gamma) at the points lo..hi-1 (all by default), one
        row for a constant chart; the metric's first failure before hi (any,
        by default), of its jet, of positive definiteness or of the points,
        is raised with its index counted from lo."""
        _raise_first(lo, hi, self._metric_failure)
        held = self.held
        if held is not self:  # the kept point, which stands for every point
            return held._ip, held._gamma
        if lo == 0 and hi in (None, len(self.points)):  # the stack, not a copy
            return self._ip, self._gamma
        return self._ip[lo:hi], self._gamma[lo:hi]

    def structure(self, lo: int = 0, hi: Optional[int] = None):
        """(J, nabla J) at the points lo..hi-1 (all by default), one row for
        a constant chart; the first failure before hi (any, by default), of
        J's jet or of the metric that nabla J needs, is raised with its index
        counted from lo."""
        J, nabla, failure = self._structure
        _raise_first(lo, hi, failure, self._metric_failure)
        if self.held is not self:
            return J, nabla
        return J[lo:hi], nabla[lo:hi]


def structure_residuals(J, G=None) -> np.ndarray:
    """|J^2 + I| and |J^T G J - G| at [..., 0] and [..., 1], for each matrix
    J of a stack and its metric G (I when None, and then not multiplied)."""
    identity, Jt = np.eye(J.shape[-1]), np.swapaxes(J, -1, -2)
    compatibility = Jt @ J - identity if G is None else Jt @ G @ J - G
    return np.stack([norms_along(J @ J + identity, (-2, -1)),
                     norms_along(compatibility, (-2, -1))], axis=-1)


_MISS = (object(), None)  # what ``kept`` reads where nothing is kept: no key equals it


def kept(owner, name: str, key, form):
    """The value ``owner`` keeps under ``name`` for ``key``: the library's one
    keep rule.  The kept (key, value) pair is read into locals; on a miss
    form() gives the value, made read-only and kept as a new pair, whole,
    unless form() raises or gives None.  Threads may form it twice, alike."""
    kept_key, value = owner.__dict__.get(name, _MISS)
    if kept_key != key:
        value = form()
        if value is not None:
            _read_only(value)
            owner.__dict__[name] = (key, value)
    return value


def _read_only(value):
    """value, every array it holds made read-only (``setflags``, which
    skips the ``flags`` object an assignment to ``flags.writeable`` builds),
    in turn: an array, a tuple's items and an object's attributes, but not a
    chart's."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif hasattr(value, "__dict__") and not isinstance(value, ChartManifold):
        for item in vars(value).values():
            _read_only(item)
    return value


def _raise_first(lo: int, hi: Optional[int], *failures) -> None:
    """Raise the earliest of the (index, error) failures before index hi (at
    any index when None), the first one given at a tie (None stands for no
    failure), its ``index`` set to index - lo."""
    found = [failure for failure in failures if failure is not None
             and (hi is None or failure[0] < hi)]
    if found:
        index, error = min(found, key=lambda failure: failure[0])
        error.index = index - lo
        raise error


def _target_check(name: str, fields: ChartFields, tol: float, count: int,
                  residuals, detail) -> CheckResult:
    """The entry of the count residuals(metric, J, nabla J) of a target check
    at the points of ``fields``, read as the frames read them: ``structure``
    raises the first failure of J, of the metric or of the map that the
    fields carry (J's at a tie).  A constant chart's kept point keeps their
    ``point_norms`` (``kept``, "norms: " + name) for every point, so the
    first point is the witness; no points fold nothing."""
    if fields.chart.complex_structure is None:
        return CheckResult.error(name, "chart has no complex structure")
    (J, nabla), (ip, _) = fields.structure(), fields.metric()

    def norms():  # silent on overflow: a norm whose squares overflow is itself
        with np.errstate(over="ignore"):
            return tuple(point_norms(r) for r in residuals(ip, J, nabla))

    held, rows = fields.held, range(len(fields.points))
    parts = [(rows, norms() if held is fields
              else kept(held, "norms: " + name, None, norms))] if rows else []
    return checked(name, tol, parts, fields.points, count, detail)


def check_almost_hermitian(fields: ChartFields,
                           tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Verify J^2 = -I and metric compatibility g(JX, JY) = g(X, Y) at the
    points of ``fields`` (``_target_check``)."""
    def residuals(ip, J, _):
        both = structure_residuals(J, ip.matrix)
        return both, *both.T

    return _target_check("almost_hermitian", fields, tol, 3, residuals,
                         lambda _, square, compatibility: {
                             "square_residual": square,
                             "compatibility_residual": compatibility})


def check_kahler(fields: ChartFields,
                 tol: float = DEFAULT_CHECK_TOL) -> CheckResult:
    """Verify that the complex structure is parallel at the points of
    ``fields``: (nabla_X J) Y = 0 (``_target_check``).

    The residual entries at a point are |(nabla_e J) f| (``nabla_j``) over
    the pairs e, f of a metric-orthonormal frame, whose Frobenius norm no
    choice of that frame changes; the detail block's direction_max is the
    largest of them.
    """
    def residuals(ip, _, nabla):
        frame = ip.frame  # g-orthonormal columns
        # (nabla_e J) f at [:, e, :, f] for the frame vectors e, f
        contracted = apply_along(np.swapaxes(frame, 1, 2), nabla @ lift(frame, 4), 0)
        lengths = np.sqrt(np.maximum(pairings(contracted, ip.matrix, contracted), 0.0))
        return lengths, lengths.max(axis=(1, 2))

    return _target_check("kahler", fields, tol, 2, residuals,
                         lambda _, largest: {"direction_max": largest})
