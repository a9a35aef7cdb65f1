"""Properties of the jets over random expression trees in x1..x3: stacked
and one-point evaluations agree bit for bit, the jets agree with the
finite-difference oracles, and printing then parsing gives the tree back.
And the witness reduction of the checks, over the stacks of a Sample, takes
the witness of the reference fold; a Sample's frames stop at the point, and
with the error, that building one point at a time finds; each member of a
stack row, and of the frame built alone at its point, equals the stack's row
of it; the section derivatives from the second fundamental form and nabla J
agree with the plain route of the oracle, and reports do not depend on the
frame block; the pairing identity's Q h_b term read through the matrix of Q
is the derivative at the explicit vector; every check residual read from
the adapted frames equals the oracle's chart route on random maps of rank
1 to 4 and on the golden maps; reports and frames do not depend on numpy's
broadcasting rule for np.linalg.solve; the batched-matmul contractions agree
with the np.einsum calls they replaced."""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

import slantmap.maps
from slantmap.expressions import (BinOp, Expression, ExpressionDomainError,
                                  Fun, Lit, Neg, Pow, Var, eval_jet2,
                                  eval_jets, parse_expression, to_text)
from slantmap.catalog import catalog_ids
from slantmap.charts import ChartManifold
from slantmap.linalg import apply_along, lift, pairings
from slantmap.loader import AnalysisSettings, LoadedMap, load_map_spec
from slantmap.maps import (MapSpec, Sample, fiber_trace, point_frame,
                           section_derivatives)
from slantmap.report import (Analysis, render_report, run_analysis,
                             sample_points)
from slantmap.charts import ChartFields, check_almost_hermitian, check_kahler
from slantmap.result import CheckResult, checked, point_norms, worst_norms
from slantmap.slant import (_condition_three_residual, check_adapted_frame,
                            check_harmonic, check_minimal_fibers,
                            check_omega_defect_identity, check_phwc,
                            check_pseudo_homothetic, check_sff_q_scaling,
                            check_totally_geodesic, classify_slant)
from slantmap.maps import check_sff_range_perp, is_riemannian_map
from oracles import (REPLACED_EINSUMS, chart_phi_omega, chart_q,
                     curve_section_derivatives, einsum_apply_along,
                     einsum_pairings, fd_gradient, fd_hessian,
                     first_failing_frame, fold_worst_residual,
                     plain_check_values)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.too_slow])
VARIABLES = st.integers(1, 3).map(Var)
COORDINATES = st.floats(-2.0, 2.0, allow_nan=False)


def _branches(children):
    return st.one_of(
        children.map(Neg),
        st.builds(Fun, st.sampled_from(("sqrt", "sin", "cos", "exp", "log")),
                  children),
        st.builds(Pow, children, st.integers(-3, 4)),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children))


# every tree the parser can produce: literals are non-negative
TREES = st.recursive(
    VARIABLES | st.floats(0.0, 1e6, allow_nan=False).map(Lit), _branches,
    max_leaves=10)


def _positive(tree):
    return BinOp("+", Lit(1.0), Pow(tree, 2))


def _smooth_branches(children):
    # compositions that stay away from every domain edge and singularity
    return st.one_of(
        children.map(Neg),
        st.builds(Fun, st.sampled_from(("sin", "cos")), children),
        children.map(lambda a: Fun("exp", Fun("sin", a))),
        children.map(lambda a: Fun("log", _positive(a))),
        children.map(lambda a: Fun("sqrt", _positive(a))),
        st.builds(Pow, children, st.integers(0, 3)),
        st.builds(lambda a, k: Pow(_positive(a), k), children, st.integers(-2, -1)),
        st.builds(BinOp, st.sampled_from("+-*"), children, children),
        st.builds(lambda a, b: BinOp("/", a, _positive(b)), children, children))


SMOOTH_TREES = st.recursive(
    VARIABLES | st.floats(0.0, 3.0, allow_nan=False).map(Lit),
    _smooth_branches, max_leaves=6)


@PROPERTY_SETTINGS
@given(TREES, st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES),
                       min_size=1, max_size=6))
def test_stacked_jets_equal_one_point_jets(root, points):
    expr = Expression(root, 3)
    stack = np.array(points)
    with np.errstate(all="ignore"):
        try:
            singles = [eval_jet2(expr, p) for p in stack]
        except ExpressionDomainError:
            with pytest.raises(ExpressionDomainError):
                eval_jet2(expr, stack)
            return
        batch = eval_jet2(expr, stack)
    for i, jet in enumerate(singles):
        for stacked, alone in ((batch.value[i], jet.value), (batch.grad[i], jet.grad),
                               (batch.hess[i], jet.hess)):
            assert np.array_equal(stacked, alone, equal_nan=True)


def _values_or_error(expressions, stack, order: int):
    try:
        return eval_jets(expressions, stack, order)[0]
    except ExpressionDomainError as exc:
        return exc


@PROPERTY_SETTINGS
@given(TREES, st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES),
                       min_size=1, max_size=6))
def test_order_zero_values_equal_the_full_jets_values(root, points):
    # no value reads a gradient: where the jets up to order 2 evaluate, the
    # values alone are the same bits; a domain error is raised with the same
    # text at the same point at both orders, while a derivative that leaves
    # the floats fails order 2 alone, at or before the values' first failure
    expressions, stack = [Expression(root, 3)], np.array(points)
    full = _values_or_error(expressions, stack, 2)
    values = _values_or_error(expressions, stack, 0)
    if isinstance(full, np.ndarray):
        assert isinstance(values, np.ndarray) and values.tobytes() == full.tobytes()
    elif full.reason != "non-finite value":
        assert (str(values), values.index) == (str(full), full.index)
    else:
        assert isinstance(values, np.ndarray) or values.index >= full.index


@PROPERTY_SETTINGS
@given(SMOOTH_TREES, st.tuples(*[st.floats(0.5, 1.5)] * 3))
def test_random_jets_match_finite_differences(root, point):
    expr = Expression(root, 3)
    p = np.array(point)
    jet = eval_jet2(expr, p)

    def value(q):
        return eval_jet2(expr, q, 0).value

    scale = max(1.0, abs(jet.value), np.abs(jet.grad).max(), np.abs(jet.hess).max())
    assert np.abs(jet.grad - fd_gradient(value, p)).max() <= 1e-6 * scale
    assert np.abs(jet.hess - fd_hessian(value, p)).max() <= 1e-5 * scale


@PROPERTY_SETTINGS
@given(TREES)
def test_printed_tree_parses_back(root):
    assert parse_expression(to_text(root), 3).root == root


# Residuals from a small set, so that ties (exact and to the last ulps),
# zeros of both signs, the infinities, NaN, and finite entries whose squares
# overflow or underflow are common
ULP = np.finfo(float).eps
RESIDUALS = st.sampled_from([0.0, 0.0, -0.0, 0.25, 1.0, 1.0, 1.0 + ULP,
                             1.0 + 2 * ULP, 1.0 - ULP / 2, 3.0,
                             3.0 * (1.0 + 8 * ULP), np.inf, -np.inf, np.nan,
                             -1.0, 1e200, -1e200, 1e-170])
# rank 1 where x1 = 0, rank 2 elsewhere
PINCH = MapSpec.create(ChartManifold.euclidean(2), ChartManifold.euclidean(2),
                       ["x1*x1/2", "x2"])


@st.composite
def _pair_residuals(draw):
    """One to three residuals over horizontal pairs at the same up to 14
    points of rank 1 or 2: a list per residual of an (r, r) array per point."""
    count = draw(st.integers(0, 14))
    ranks = draw(st.lists(st.sampled_from([1, 2]), min_size=count,
                          max_size=count))
    return [[np.array(draw(st.lists(RESIDUALS, min_size=r * r, max_size=r * r))
                      ).reshape(r, r) for r in ranks]
            for _ in range(draw(st.integers(1, 3)))]


@PROPERTY_SETTINGS
@given(_pair_residuals())
@example([[np.array([[np.nan, 0.25], [0.0, 3.0]]), np.array([[1.0]])]])
@example([[np.zeros((2, 2)), np.array([[-0.0]])],
          [np.array([[1.0, np.nan], [-np.inf, 0.0]]), np.array([[np.nan]])]])
@example([[np.array([[1e200, 1e200], [1.0, 0.0]]), np.array([[1e-170]])],
          [np.array([[1e-170, 0.0], [0.0, -1e-170]]), np.array([[0.0]])]])
def test_worst_residual_matches_the_reference_fold(residuals):
    # the residuals reach Sample.reduce as the stacks of a Sample hold their
    # points: blocks of three, one stack per rank in a block; each residual
    # folds as the reference fold does alone, and the witness is the first's;
    # a check's entry (Sample.check) has the first worst as its residual,
    # samples the number of points, and the witness exactly when it fails
    points = [[0.0 if len(r) == 1 else 0.5, 0.1 * i]
              for i, r in enumerate(residuals[0])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slantmap.maps, "FRAME_BLOCK", 3)
        sample = Sample(PINCH, points)

        def stacked(per_point):
            def residual(stack):
                rows, = [rows for rows, s in sample.stacks() if s is stack]
                assert all(len(per_point[i]) == stack.rank for i in rows)
                return np.stack([per_point[i] for i in rows])
            return residual

        forms = [stacked(r) for r in residuals]
        with np.errstate(over="ignore"):  # a square of 1e200
            worsts, witness = sample.reduce("fold", *forms)
            entries = [sample.check("fold", tol, *forms)
                       for tol in (0.0, 1.0, np.inf)]
    expected = [fold_worst_residual(zip(r, points)) for r in residuals]
    assert worsts == [worst for worst, _ in expected]
    assert witness == expected[0][1]
    for entry, tol in zip(entries, (0.0, 1.0, np.inf)):
        fails = expected[0][0] > tol
        assert (entry.name, entry.status, entry.tol) == (
            "fold", "fail" if fails else "pass", tol)
        assert entry.residual == expected[0][0] and entry.samples == len(points)
        assert entry.witness == (expected[0][1] if fails else None)


@PROPERTY_SETTINGS
@given(st.lists(st.lists(RESIDUALS, min_size=3, max_size=3), min_size=1,
                max_size=3), st.integers(1, 9))
def test_a_constant_stack_folds_as_every_row_it_stands_for(residuals, count):
    # a constant frame's one-row stack stands for every sample index, and
    # its one row of entries for the entries at each of them
    spec = MapSpec.create(ChartManifold.euclidean(2),
                          ChartManifold.euclidean(2), ["x1 + x2", "x2"])
    points = [[0.1 * i, -0.2 * i] for i in range(count)]
    sample = Sample(spec, points)
    (rows, stack), = sample.stacks()
    assert (len(stack), len(rows)) == (1, count)
    with np.errstate(over="ignore"):  # a square of 1e200
        worsts, witness = sample.reduce(
            "fold", *[lambda s, r=r: np.array(r)[None] for r in residuals])
    expected = [fold_worst_residual((np.array(r), p) for p in points)
                for r in residuals]
    assert worsts == [worst for worst, _ in expected]
    assert witness == expected[0][1]


@st.composite
def _interleaved_parts(draw):
    """Up to 12 points dealt to up to three parts in any order, each part
    with its own entry shape (one entry per point, or a row of 2 or 3), and
    one or two residuals: (labels, shapes, entries[k][i] per point)."""
    count = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    shapes = draw(st.lists(st.sampled_from([(), (2,), (3,)]), min_size=3,
                           max_size=3))
    entries = [[np.array(draw(st.lists(RESIDUALS, min_size=math.prod(shape),
                                       max_size=math.prod(shape)))).reshape(shape)
                for shape in (shapes[label] for label in labels)]
               for _ in range(draw(st.integers(1, 2)))]
    return labels, entries


@PROPERTY_SETTINGS
@given(_interleaved_parts())
@example(([1, 0, 1], [[np.array(np.nan), np.array(1e-170), np.array(1e200)]]))
@example(([0, 1, 0, 1], [[np.array([1e-170, 0.0]), np.array([np.inf, np.nan, 1.0]),
                          np.array([-1e-170, 1e-170]), np.array([3.0, 1e200, 0.0])],
                         [np.array([0.0, 0.0]), np.zeros(3), np.array([np.nan, 0.0]),
                          np.array([1e200, -1e200, 1e-170])]]))
def test_point_norms_fold_as_the_reference_over_interleaved_parts(parts):
    # each part's residual arrays hold the points of its rows, whose rows
    # interleave with another part's (as the stacks of two ranks in a block
    # do); folding each array's point_norms gives the worsts and the witness
    # of the reference fold over the points in sample order
    labels, entries = parts
    points = np.array([[0.5 * i] for i in range(len(labels))])
    folded = []
    with np.errstate(over="ignore"):  # a square of 1e200
        for label in sorted(set(labels)):
            rows = np.flatnonzero(np.array(labels) == label)
            folded.append((rows, [point_norms(np.stack([e[i] for i in rows]))
                                  for e in entries]))
        worsts, witness = worst_norms(folded, points, len(entries))
    expected = [fold_worst_residual(zip(e, points)) for e in entries]
    assert worsts == [worst for worst, _ in expected]
    assert witness == expected[0][1]


def _fold(points, *residuals):
    """worst_norms of the point_norms of each residual array: one part, over
    every point."""
    return worst_norms([(range(len(points)), [point_norms(r) for r in residuals])],
                       points, len(residuals))


def test_witness_ties_to_the_last_ulp():
    # a point's residual is the Frobenius norm of its entries, a NaN entry
    # counted as 0; residuals that agree up to their last ulps, as sums taken
    # in another order would round them, tie: the witness is the first point
    # within 8 ulps (relative) of the largest residual
    step = np.spacing(5.0)  # 4/5 of an ulp, relative
    points = np.array([[0.0], [1.0], [2.0]])
    residuals = np.array([[3.0, 4.0], [0.0, 5.0 + 6 * step],
                          [-(5.0 + 9 * step), np.nan]])
    assert _fold(points, residuals) == ([5.0 + 9 * step], {"point": [0.0]})
    # 5.0 is 11 steps (8.8 ulps) below the largest: the next point is the
    # witness
    residuals[2, 0] = 5.0 + 11 * step
    assert _fold(points, residuals) == ([5.0 + 11 * step], {"point": [1.0]})


def test_a_finite_residual_folds_as_itself():
    # a worst whose squares overflow or underflow (or that is 0.0 over
    # nonzero entries) folds again with the entries scaled by a power of
    # two, exactly: the reference fold's residual, an infinite entry's inf,
    # and the bits of an ordinary residual folded beside it
    with np.errstate(over="ignore"):  # a square of 1e160
        for big_or_small in (1e160, 1e-170):
            assert _fold(np.zeros((1, 1)), np.array([[big_or_small, 0.0]])) == (
                [big_or_small], {"point": [0.0]})
        # a norm beyond the largest float is inf, though every entry is
        # finite; an infinite entry beside a NaN is inf, a NaN counts as 0
        for entries, worst in (([1e160, 0.0], 1e160), ([1.5e308, 1.5e308], np.inf),
                               ([np.inf, np.nan], np.inf), ([1e-170, np.nan], 1e-170)):
            assert _fold(np.zeros((1, 1)), np.array([entries])) == (
                [worst], {"point": [0.0]})
        points = np.array([[0.0], [1.0]])
        for entries in ([[1e-170, -1e-170], [1e-171, 0.0]], [[5e-324, 0.0], [0.0, 0.0]],
                        [[1e200, np.nan], [np.inf, 1.0]], [[1e200, 1e200], [-1e200, 1.0]],
                        [[1e-200, 1e200], [3.0, 4.0]]):
            entries = np.array(entries)
            expected = fold_worst_residual(zip(entries, points))
            worsts, witness = _fold(points, np.array([[3.0, 4.0]]), entries)
            assert (worsts, witness) == ([5.0, expected[0]], {"point": [0.0]})
            assert _fold(points, entries) == ([expected[0]], expected[1])
        # one entry per point: its norm is its magnitude
        for entries in ([1e-170, -1e200, np.nan], [np.nan, -1e-170, 5e-324], [0.0, -0.0, 3.0]):
            points = np.array([[0.0], [1.0], [2.0]])
            top = max(range(3), key=lambda i: abs(np.nan_to_num(entries[i])))
            assert _fold(points, np.array(entries)) == (
                [abs(entries[top])], {"point": [float(top)]})


def test_the_public_fold_is_silent():
    # check_almost_hermitian and check_kahler, called on their own, fold
    # residuals whose squares overflow with no RuntimeWarning, as an analysis
    # does: |J^2 + I| and |J^T J - I| of 1.02e154 each, and two lengths
    # |(nabla_e J) e| of 1.13e154, refolded exactly
    a, k = "0.85e77", "0.8e154"
    stretched = ChartManifold.euclidean(2, [["0", "-" + a], [a, "0"]])
    twisted = ChartManifold.euclidean(2, [[f"{k}*x1", f"{k}*x2"]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = [check_almost_hermitian(ChartFields(stretched, np.zeros((3, 2)))),
                   check_kahler(ChartFields(twisted, np.zeros((3, 2))))]
    each = math.sqrt(2.0) * (0.85e77 * 0.85e77 - 1.0)
    assert entries[0].residual == math.hypot(each, each)
    assert entries[1].residual == 2.0 * 0.8e154
    for entry in entries:
        assert (entry.status, entry.samples) == ("fail", 3)
        assert entry.witness == {"point": [0.0, 0.0]}


def test_a_reason_fails_an_entry_and_keeps_its_witness():
    # result.checked: the first worst is the residual, and an entry fails
    # with its witness when the residual exceeds tol or reason() gives one
    points = np.array([[0.0], [1.0]])
    parts = [(range(2), [point_norms(np.array([[0.5], [1.0]])),
                         point_norms(np.array([[2.0], [0.0]]))])]
    entry = {"name": "c", "status": "pass", "residual": 1.0, "tol": 2.0,
             "samples": 2}
    assert checked("c", 2.0, parts, points, 2, reason=lambda: None).to_dict() == entry
    assert checked("c", 2.0, parts, points, 2, lambda _, second: {
        "second": second}).to_dict() == dict(entry, detail={"second": 2.0})
    assert checked("c", 2.0, parts, points, 2, reason=lambda: "why").to_dict() == dict(
        entry, status="fail", reason="why", witness={"point": [1.0]})
    assert checked("c", 0.5, parts, points, 2).witness == {"point": [1.0]}


# Maps of [-1, 1]^2 into C^2 with a weighted sqrt or log term in a
# component, the source metric, the target metric or J (in the image
# coordinates of the target chart).  STRADDLING terms cross the edge of their
# domain inside the box.  A weighted log also makes its metric entry
# 1 + 2 log(.) negative before its domain ends: a metric that is not positive
# definite, as a second way to fail.  INSIDE terms stay in their domains, and
# their metric entries stay above 0.6.
EDGE_PLACES = ("component", "source_metric", "target_metric", "j")
STANDARD_J = (("0", "-1", "0", "0"), ("1", "0", "0", "0"),
              ("0", "0", "0", "-1"), ("0", "0", "1", "0"))
STRADDLING = (("0", "0.5", "2"), ("0.75", "0.5", "0.9"))
INSIDE = (("0", "0.5"), ("1.5", "2", "3"))


@st.composite
def _specs_into_c2(draw, terms):
    weights, shifts = terms

    def edge(variables):
        choices = (weights, ("sqrt", "log"), ("", "-"), variables, shifts)
        weight, function, sign, variable, shift = (
            draw(st.sampled_from(c)) for c in choices)
        return f"{weight}*{function}({sign}{variable} + {shift})"

    places = draw(st.sets(st.sampled_from(EDGE_PLACES), min_size=1))
    components = ["x1", "0", "x2", "0"]
    source = [["1", "0"], ["0", "1"]]
    target = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    j = [list(row) for row in STANDARD_J]
    if "component" in places:
        components[1] = edge(("x1", "x2"))
    if "source_metric" in places:
        i = draw(st.integers(0, 1))
        source[i][i] = f"1 + {edge(('x1', 'x2'))}"
    if "target_metric" in places:
        i = draw(st.integers(0, 3))
        target[i][i] = f"1 + {edge(('x1', 'x3'))}"
    if "j" in places:
        j[0][1] = f"-1 + {edge(('x1', 'x3'))}"
    return MapSpec.create(ChartManifold.from_strings(2, source),
                          ChartManifold.from_strings(4, target, j), components)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(_specs_into_c2(STRADDLING), st.integers(1, 16), st.integers(0, 2**16))
def test_failure_locator_matches_one_point_frames(spec, count, seed):
    # the stacks of a Sample hold the points before the first one whose frame
    # fails when built alone, and riemannian_map reports that point's error,
    # in blocks of two points and in one block
    expected = first_failing_frame(spec, sample_points(spec.box, count, seed))
    for block in (2, 1024):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(slantmap.maps, "FRAME_BLOCK", block)
            analysis = Analysis(LoadedMap(
                spec, AnalysisSettings(points=count, seed=seed), "generated"))
            built = 0
            try:
                for _, stack in analysis.sample.stacks():
                    built += len(stack)
            except Exception:
                pass
            entry = analysis.entry("riemannian_map")
        reason = entry.reason if entry.status == "error" else None
        assert (built, reason) == expected, block


def _members(frames) -> dict:
    """The members of a FrameStack, or of a point frame, that hold one array
    per point, by name."""
    members = {name: getattr(frames, name) for name in (
        "source_coframe", "target_coframe", "adapted_jacobian", "j_blocks",
        "adapted_j_pushforward", "adapted_q", "q", "adapted_sff",
        "adapted_nabla_j", "sigma_inverse", "horizontal_connection", "tension")}
    derivatives = frames.horizontal_derivatives
    members.update((f"horizontal_derivatives.{f.name}", getattr(derivatives, f.name))
                   for f in dataclasses.fields(derivatives))
    members.update((f"squares[{k}]", square) for k, square in enumerate(frames.squares[:2]))
    members.update((f"split.{name}", getattr(frames.split, name).columns)
                   for name in ("kernel", "horizontal", "range", "range_perp"))
    if frames.split.kernel.dim:
        members["fiber_trace"] = fiber_trace(frames)
    return members


def _assert_within_scale(actual, expected, scale, name):
    assert actual.shape == expected.shape, name
    assert np.abs(actual - expected).max(initial=0.0) <= 1e-12 * scale, name


DATA_MAPS = Path(__file__).resolve().parent / "data" / "maps"
RANK4_SPECS = [load_map_spec(str(path)).spec
               for path in sorted(DATA_MAPS.glob("*.json"))]


@PROPERTY_SETTINGS
@given(_specs_into_c2(INSIDE) | st.sampled_from(RANK4_SPECS),
       st.integers(1, 8), st.integers(0, 2**16))
def test_stack_rows_equal_point_frames(spec, count, seed):
    # each member of a stack row, formed from the row's own arrays, and of
    # the frame built alone at its point, is the stack's row of it, bit for bit
    sample = Sample(spec, sample_points(spec.box, count, seed))
    for _, stack in sample.stacks():
        stacked = _members(stack)
        for i, p in enumerate(stack.points):
            for frame in (stack.row(i), point_frame(spec, p)):
                members = _members(frame)
                assert sorted(members) == sorted(stacked)
                for name, value in members.items():
                    row = stacked[name][i]
                    assert (value.shape, value.tobytes()) == (row.shape, row.tobytes()), name


@PROPERTY_SETTINGS
@given(_specs_into_c2(INSIDE) | st.sampled_from(RANK4_SPECS),
       st.integers(1, 8), st.integers(0, 2**16))
def test_section_derivatives_match_the_plain_route(spec, count, seed):
    # along the horizontal frame and along random directions, every field
    # agrees with the oracle's curve derivatives, projector and adjoint
    # derivatives and Christoffel terms; and the report is the same whether
    # its frames are built in blocks of two points or in one block
    rng = np.random.default_rng(seed)
    for _, stack in Sample(spec, sample_points(spec.box, count, seed)).stacks():
        random = rng.standard_normal((len(stack), spec.source.dim, 3))
        for X in (stack.split.horizontal.columns, random):
            library = section_derivatives(stack, X)
            oracle = curve_section_derivatives(spec, stack, X)
            for field in dataclasses.fields(library):
                expected = getattr(oracle, field.name)
                _assert_within_scale(getattr(library, field.name), expected,
                                     max(1.0, np.abs(expected).max(initial=0.0)),
                                     field.name)
    reports = []
    for block in (2, 1024):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(slantmap.maps, "FRAME_BLOCK", block)
            reports.append(render_report(run_analysis(LoadedMap(
                spec, AnalysisSettings(points=count, seed=seed), "generated"))))
    assert reports[0] == reports[1]


@PROPERTY_SETTINGS
@given(_specs_into_c2(INSIDE) | st.sampled_from(RANK4_SPECS),
       st.integers(1, 8), st.integers(0, 2**16))
def test_condition_three_takes_the_q_term_through_the_frame(spec, count, seed):
    # _condition_three_residual forms nabla^perp_{h_a}(omega F_*Q h_b) as
    # sum_c q[c, b] times its value at h_c: that term, the part of the
    # residual linear in frames.q, equals the derivative that the operators
    # of section_derivatives give at the explicit vector Q h_b
    for _, stack in Sample(spec, sample_points(spec.box, count, seed)).stacks():
        h = stack.split.horizontal.columns
        without_q = dataclasses.replace(stack)
        without_q.q = np.zeros_like(stack.q)
        residuals = (_condition_three_residual(stack),
                     _condition_three_residual(without_q))
        qh = chart_q(stack) @ h
        gamma = np.einsum("...kij,...ia,...jb->...akb", stack.gamma_source, h, qh)
        d_omega = (section_derivatives(stack, h).omega_defect @ lift(qh, 4)
                   + chart_phi_omega(stack, gamma)[1])
        expected = lift(np.swapaxes(stack.split.range_perp.columns, -1, -2)
                        @ stack.g_target.matrix, 4) @ d_omega
        scale = max(1.0, *(np.abs(x).max() for x in (*residuals, expected)))
        _assert_within_scale(residuals[0] - residuals[1], expected, scale,
                             "Q h_b term")


def test_reports_and_frames_do_not_depend_on_the_solve_rule(request):
    # numpy 1.x reads a b with one axis fewer than a as a stack of vectors,
    # numpy 2 as a stack of matrices: every report and frame member is the
    # same under both rules
    maps = [f"catalog:{name}" for name in catalog_ids()] + [
        str(path) for path in sorted(DATA_MAPS.glob("*.json"))]
    specs = [load_map_spec(name).spec for name in ("catalog:example4",
                                                   "catalog:warped_fiber",
                                                   "catalog:curved_target")]
    specs += RANK4_SPECS
    points = [sample_points(spec.box, 2, 5) for spec in specs]

    def run():
        reports = [render_report(run_analysis(load_map_spec(name)))
                   for name in maps]
        members = [_members(point_frame(spec, p))
                   for spec, at in zip(specs, points) for p in at]
        return reports, members

    expected_reports, expected_members = run()
    calls = request.getfixturevalue("numpy1_solve")
    reports, members = run()
    assert calls
    assert reports == expected_reports
    for actual, expected in zip(members, expected_members):
        assert sorted(actual) == sorted(expected)
        for name, value in actual.items():
            assert np.array_equal(value, expected[name]), name


# The stacked contractions against the np.einsum calls they replaced: each
# within 16 ulps of the sum of the magnitudes of its terms, and each row of a
# stack equal to the same row computed alone or in a strided slice.

@st.composite
def _random_maps(draw):
    """Maps of rank r in 1..4 from R^n (n in r..5) into R^m (m even, r <= m
    <= 6, standard J): F = M phi + c phi_1^2 over a submersion phi onto R^r,
    with M = orthonormal columns times singular values in [0.5, 2], so that
    each route's rounding stays far below 1e-12 of the values.  The source
    and target metrics are random SPD matrices (smallest eigenvalue at least
    1), constant or with a bounded varying part that keeps them SPD."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, min(r + 2, 5)))
    m = 2 * draw(st.integers((r + 1) // 2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = (np.linalg.qr(rng.standard_normal((m, r)))[0]
         * rng.uniform(0.5, 2.0, r))
    shear, bend = rng.uniform(-0.4, 0.4, r), rng.uniform(-0.3, 0.3, m)
    phi = [f"(x{i + 1} + {shear[i]:.6f}*sin(x{(i + 1) % n + 1}))" for i in range(r)]
    components = [" + ".join(f"{M[g, i]:.6f}*{phi[i]}" for i in range(r))
                  + f" + {bend[g]:.6f}*pow({phi[0]}, 2)" for g in range(m)]

    def metric(dim, varying):
        B = rng.standard_normal((dim, dim))
        G = np.eye(dim) + 0.5 * B.T @ B
        entries = [[f"{G[i, j]:.6f}" for j in range(dim)] for i in range(dim)]
        if varying:  # 0 <= 0.3 sin^2 on the diagonal, and a pair within 0.2
            i, j, k = rng.integers(0, dim, 3)
            entries[i][i] += f" + 0.3*pow(sin(x{k + 1}), 2)"
            if i != j:
                entries[i][j] += f" + 0.2*sin(x{k + 1})"
                entries[j][i] += f" + 0.2*sin(x{k + 1})"
        return entries

    J = [["0"] * m for _ in range(m)]
    for i in range(0, m, 2):
        J[i][i + 1], J[i + 1][i] = "-1", "1"
    return MapSpec.create(
        ChartManifold.from_strings(n, metric(n, draw(st.booleans()))),
        ChartManifold.from_strings(m, metric(m, draw(st.booleans())), J),
        components, name="random")


GOLDEN_SPECS = [load_map_spec(f"catalog:{name}").spec for name in catalog_ids()]
GOLDEN_SPECS += RANK4_SPECS
# the residuals that scale with sec(mean angle), compared only where it is
# at most 10
SEC_KEYS = ("phwc", "phwc.square_residual", "phwc.hermitian_residual",
            "pseudo_homothetic.structure_derivative_residual",
            "pseudo_homothetic.vertical_pairing_residual")


def _library_check_values(sample, angle_tol):
    """Every check residual, detail sub-residual and slant-block fit, from
    the check functions without their gates, and the mean slant angle."""
    slant = classify_slant(sample, angle_tol,
                           riemannian=CheckResult("riemannian_map", "pass"))
    values = {}
    for check in (is_riemannian_map, check_sff_range_perp, check_harmonic,
                  check_minimal_fibers, check_totally_geodesic,
                  check_omega_defect_identity,
                  lambda s: check_adapted_frame(s, slant),
                  lambda s: check_sff_q_scaling(s, slant),
                  lambda s: check_phwc(s, slant),
                  lambda s: check_pseudo_homothetic(s, slant)):
        try:
            result = check(sample)
        except ValueError:  # an adapted frame that does not close
            continue
        if result.residual is not None:  # minimal_fibers on an immersion
            values[result.name] = result.residual
        values.update((f"{result.name}.{key}", value)
                      for key, value in result.detail.items()
                      if key.endswith(("residual", "mixed_sff")))
    values.update((f"slant.{key}", getattr(slant, key)) for key in (
        "lambda_estimate", "lambda_residual", "mu_estimate", "mu_residual",
        "omega_defect", "phi_defect"))
    return values, slant.mean_angle


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(_random_maps() | st.sampled_from(GOLDEN_SPECS), st.integers(1, 5),
       st.integers(0, 2**16))
def test_adapted_residuals_match_the_chart_route(spec, count, seed):
    # every check residual read from the adapted members, a component tensor
    # in orthonormal frames, equals the plain chart route's g-norms within
    # 1e-12 of its size; the pseudo-homothetic residual is the larger of the
    # phi defect and the mixed sff
    sample = Sample(spec, sample_points(spec.box, count, seed))
    assume(len({s.rank for _, s in sample.stacks()}) == 1)
    library, mean_angle = _library_check_values(sample, 1e-6)
    plain = plain_check_values(sample, mean_angle, 1e-6)
    plain["pseudo_homothetic"] = max(plain["slant.phi_defect"],
                                     plain["pseudo_homothetic.mixed_sff"])
    if "adapted_frame" not in library:
        del plain["adapted_frame"]
    if not abs(math.cos(mean_angle)) >= 0.1:
        for key in SEC_KEYS:
            library.pop(key), plain.pop(key)
    assert sorted(library) == sorted(plain)
    for key, value in library.items():
        assert abs(value - plain[key]) <= 1e-12 * max(1.0, abs(value)), (
            key, value, plain[key])


@st.composite
def _linear_riemannian_maps(draw):
    """F(x) = L2^-1 U V^T L1 x of rank r in 1..4 from R^n (n in r..5) into
    R^m (m even, r <= m <= 6, standard J), with random constant SPD metrics
    G1 = L1^T L1 and G2 = L2^T L2 and U, V of r orthonormal columns: a
    Riemannian map by construction, its coefficients written in full."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, min(r + 2, 5)))
    m = 2 * draw(st.integers((r + 1) // 2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def metric(dim):
        B = rng.standard_normal((dim, dim))
        G = np.eye(dim) + 0.5 * B.T @ B
        entries = [[repr(x) for x in row] for row in G.tolist()]
        return entries, np.linalg.cholesky(G).T

    (G1, L1), (G2, L2) = metric(n), metric(m)
    U = np.linalg.qr(rng.standard_normal((m, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    A = np.linalg.solve(L2, U) @ V.T @ L1
    components = [" + ".join(f"({x!r})*x{i + 1}" for i, x in enumerate(row))
                  for row in A.tolist()]
    J = [["0"] * m for _ in range(m)]
    for i in range(0, m, 2):
        J[i][i + 1], J[i + 1][i] = "-1", "1"
    return MapSpec.create(
        ChartManifold.from_strings(n, G1), ChartManifold.from_strings(m, G2, J),
        components, name="linear_riemannian")


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(_linear_riemannian_maps() | _random_maps() | _specs_into_c2(INSIDE),
       st.integers(1, 5), st.integers(0, 2**16))
def test_eikonal_residual_is_small_wherever_riemannian_map_passes(spec, count,
                                                                  seed):
    # |F_*|^2 = rank F is necessary for a Riemannian map; the linear maps
    # are Riemannian by construction, so the property is not vacuous
    result = is_riemannian_map(Sample(spec, sample_points(spec.box, count, seed)))
    if spec.name == "linear_riemannian":
        assert result.passed, result.residual
    if result.passed:
        assert result.detail["eikonal_residual"] <= result.tol


def test_eikonal_residual_is_small_on_the_golden_maps():
    for spec in GOLDEN_SPECS:
        result = is_riemannian_map(Sample(spec, sample_points(spec.box, 50, 7)))
        assert result.passed, spec.name  # every golden map is Riemannian
        assert result.detail["eikonal_residual"] <= result.tol, spec.name


def _swap(x):
    return np.swapaxes(x, -1, -2)


def _kahler_pairs(nabla, first, second):
    # charts._along_pairs, with the two frames drawn apart, in einsum's layout
    return np.swapaxes(apply_along(first, nabla @ lift(second, 4), 0), 1, 2)


# each site's form, over the operands of its REPLACED_EINSUMS entry
SITE_FORMS = {
    "linalg.InnerProduct.norms": pairings,
    "maps.PointFrame.adapted_frames": lambda b, G, R: pairings(b[..., None], G, R),
    "maps._bilinear": lambda T, X: apply_along(_swap(X), T, 1),
    "maps.FrameStack.tension": lambda inverse, sff: (
        (sff * inverse[..., None, :, :]).sum(axis=-1).sum(axis=-1)),
    "maps.frame_block.source_christoffel": lambda gamma, jac: apply_along(jac, gamma, 0),
    "maps.frame_block.target_christoffel": lambda gamma, jac, jac2: (
        lift(_swap(jac), 4) @ gamma @ lift(jac2, 4)),
    "maps.section_derivatives.dJ": lambda dJ, fx: apply_along(_swap(fx), dJ, 0),
    "charts.christoffel": lambda inverse, lower: (
        apply_along(inverse, np.moveaxis(lower, -1, -3), 0)),
    "oracles.metric_derivative": lambda gamma, X: apply_along(_swap(X), gamma, 1),
    "oracles.curve_section_derivatives.target_connection": lambda gamma, fx: (
        apply_along(_swap(fx), gamma, 1)),
    "oracles.curve_section_derivatives.source_connection": lambda gamma, X: (
        apply_along(_swap(X), gamma, 1)),
    "charts.check_kahler.gamma_j": lambda gamma, J: (
        np.swapaxes(gamma @ J[:, None], 1, 2)),
    "charts.check_kahler.j_gamma": lambda J, gamma: (
        np.swapaxes(apply_along(J, gamma, 0), 1, 2)),
    "charts.check_kahler.contracted": lambda nabla, F, H: (
        _kahler_pairs(nabla, _swap(F), H)),
    "charts.check_kahler.squares": lambda C, G, D: pairings(
        np.swapaxes(C, 1, 2), G, np.swapaxes(D, 1, 2)
    ).reshape(len(C), C.shape[2] * C.shape[3]).sum(axis=1),
    "charts.check_kahler.pair_squares": lambda C, G, D: pairings(
        np.swapaxes(C, 1, 2), G, np.swapaxes(D, 1, 2)),
}


def _operands(subscripts, sizes, count, seed):
    """Random operands of the einsum subscripts: each letter of its size, and
    "n" and "..." a stack of count points."""
    rng = np.random.default_rng(seed)
    terms = subscripts.split("->")[0].split(",")
    return [rng.standard_normal(
        ((count,) if term.startswith("...") else ())
        + tuple(count if c == "n" else sizes[c] for c in term.replace("...", "")))
        for term in terms]


def _assert_close(actual, expected, scale):
    assert actual.shape == expected.shape
    assert (np.abs(actual - expected) <= 16 * np.finfo(float).eps * scale).all()


def _assert_rows_stand_alone(form, operands, stacked):
    for i in range(len(operands[0])):
        alone = form(*[x[i:i + 1] for x in operands])
        assert np.array_equal(alone[0], stacked[i])
    strided = form(*[x[::2] for x in operands])
    assert np.array_equal(strided, stacked[::2])


# zero sizes give zero-width column matrices and rank-0 stacks
SIZES = st.fixed_dictionaries({c: st.integers(0, 3) for c in "abcgijklxy"})
COUNTS = st.integers(1, 4)
SEEDS = st.integers(0, 2**32 - 1)


def test_every_replaced_einsum_has_a_form():
    assert sorted(SITE_FORMS) == sorted(REPLACED_EINSUMS)


@pytest.mark.parametrize("site", sorted(REPLACED_EINSUMS))
@settings(PROPERTY_SETTINGS, max_examples=50)
@given(SIZES, COUNTS, SEEDS)
def test_site_contraction_matches_its_einsum(site, sizes, count, seed):
    subscripts = REPLACED_EINSUMS[site]
    operands = _operands(subscripts, sizes, count, seed)
    stacked = SITE_FORMS[site](*operands)
    _assert_close(stacked, np.einsum(subscripts, *operands),
                  np.einsum(subscripts, *map(np.abs, operands)))
    _assert_rows_stand_alone(SITE_FORMS[site], operands, stacked)


@PROPERTY_SETTINGS
@given(SIZES, COUNTS, st.integers(0, 2), SEEDS)
def test_pairings_match_their_einsum(sizes, count, extra, seed):
    # vectors (N, d.., n, a) under metrics (N, n, n), lifted over the d axes
    rng = np.random.default_rng(seed)
    n, a = sizes["i"], sizes["a"]
    U, V = (rng.standard_normal((count,) + (2,) * extra + (n, a)) for _ in "UV")
    G = rng.standard_normal((count, n, n))
    stacked = pairings(U, G, V)
    _assert_close(stacked, einsum_pairings(U, G, V),
                  einsum_pairings(np.abs(U), np.abs(G), np.abs(V)))
    _assert_rows_stand_alone(pairings, (U, G, V), stacked)


@PROPERTY_SETTINGS
@given(SIZES, COUNTS, st.sampled_from([0, 1]), st.booleans(), SEEDS)
def test_apply_along_matches_its_einsum(sizes, count, axis, stack, seed):
    rng = np.random.default_rng(seed)
    k, l, i, j = (sizes[c] for c in "klij")
    lead = (count,) if stack else ()
    x = rng.standard_normal(lead + (k, l))
    tensor = rng.standard_normal(lead + ((l, i, j) if axis == 0 else (i, l, j)))
    stacked = apply_along(x, tensor, axis)
    _assert_close(stacked, einsum_apply_along(x, tensor, axis),
                  einsum_apply_along(np.abs(x), np.abs(tensor), axis))
    if stack:
        _assert_rows_stand_alone(lambda *ops: apply_along(*ops, axis),
                                 (x, tensor), stacked)
