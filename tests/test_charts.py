from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slantmap.charts
from slantmap.catalog import catalog_ids
from slantmap.charts import (ChartError, ChartFields, ChartManifold,
                             check_almost_hermitian, check_kahler, christoffel,
                             nabla_j)
from slantmap.expressions import (ExpressionDomainError, eval_jet2,
                                  parse_expression)
from slantmap.linalg import InnerProduct
from slantmap.loader import load_map_spec
from slantmap.maps import MapSpec, map_point
from slantmap.report import sample_points
from oracles import (eval_value, fd_christoffel, fd_nabla_j, metric_values,
                     moveaxis_christoffel, scatter_metric_jet)

STANDARD_J4 = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
               ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]


def rotated_j4():
    """Standard structure conjugated by a position-dependent rotation in the
    (2,4)-coordinate plane; compatible pointwise but nowhere parallel."""
    c, s = "cos(x1)", "sin(x1)"
    return [["0", f"-{c}", "0", f"-{s}"],
            [c, "0", f"-{s}", "0"],
            ["0", s, "0", f"-{c}"],
            [s, "0", c, "0"]]


def test_chart_requires_symmetric_metric_text():
    with pytest.raises(ChartError, match="symmetric"):
        ChartManifold.from_strings(2, [["1", "x1"], ["x2", "1"]])


def test_complex_structure_needs_even_dimension():
    with pytest.raises(ChartError, match="even"):
        ChartManifold.from_strings(3, None, [["0"] * 3] * 3)


@pytest.mark.parametrize("metric, j", [
    ([["1", "0"]], None), ([["1"], ["0"]], None),
    (None, [["0", "-1", "0"], ["1", "0", "0"]]),
])
def test_chart_matrices_must_be_square_of_the_dimension(metric, j):
    with pytest.raises(ChartError, match="must be a 2x2 array of expressions"):
        ChartManifold.from_strings(2, metric, j)


def test_a_chart_without_j_has_no_structure_jet_and_no_kahler_check():
    chart = ChartManifold.euclidean(2)
    with pytest.raises(ChartError, match="chart has no complex structure"):
        chart.complex_structure_jet([0.0, 0.0])
    result = check_kahler(ChartFields(chart, [np.zeros(2)]))
    assert (result.status, result.reason) == ("error", "chart has no complex structure")


def test_christoffel_flat_zero():
    chart = ChartManifold.euclidean(3)
    gamma = chart.metric_at([0.2, -0.5, 1.0])[1]
    assert np.abs(gamma).max() == 0.0


def test_christoffel_hyperbolic_half_plane():
    chart = ChartManifold.from_strings(
        2, [["1/pow(x2,2)", "0"], ["0", "1/pow(x2,2)"]])
    gamma = chart.metric_at([0.0, 1.0])[1]
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = expected[0, 1, 0] = -1.0  # Gamma^1_12
    expected[1, 0, 0] = 1.0                       # Gamma^2_11
    expected[1, 1, 1] = -1.0                      # Gamma^2_22
    np.testing.assert_allclose(gamma, expected, atol=1e-12)


def test_christoffel_conformal_plane():
    chart = ChartManifold.from_strings(
        2, [["exp(2*x1)", "0"], ["0", "exp(2*x1)"]])
    gamma = chart.metric_at([0.0, 0.0])[1]
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0                       # Gamma^1_11
    expected[0, 1, 1] = -1.0                      # Gamma^1_22
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0   # Gamma^2_12
    np.testing.assert_allclose(gamma, expected, atol=1e-12)


@pytest.mark.parametrize("metric, box", [
    ([["1/pow(x2,2)", "0"], ["0", "1/pow(x2,2)"]], [(0.5, 2.0), (0.5, 2.0)]),
    ([["exp(2*x1)", "0"], ["0", "exp(2*x1)"]], [(-1.0, 1.0), (-1.0, 1.0)]),
    ([["1 + pow(x1,2)", "x1*x2"], ["x1*x2", "2 + pow(x2,2)"]],
     [(-0.8, 0.8), (-0.8, 0.8)]),
])
def test_christoffel_matches_finite_difference_oracle(metric, box):
    chart = ChartManifold.from_strings(2, metric)
    gen = np.random.default_rng(12)
    for _ in range(6):
        p = np.array([gen.uniform(lo, hi) for lo, hi in box])
        exact = chart.metric_at(p)[1]
        approx = fd_christoffel(chart, p)
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(exact - approx).max() <= 1e-6 * scale


def test_christoffel_rejects_indefinite_metric():
    chart = ChartManifold.from_strings(2, [["x1", "0"], ["0", "1"]])
    with pytest.raises(ChartError, match="positive definite"):
        chart.metric_at([-1.0, 0.0])


def test_metric_at_names_the_earliest_failing_point():
    # sqrt fails first at index 2, in the first entry; log at index 1, in a
    # later one: the stack's error is the earliest point's, as ChartFields'
    chart = ChartManifold.from_strings(
        2, [["1 + 0*sqrt(x1)", "0"], ["0", "1 + 0*log(x1 - 0.5)"]])
    points = [[1.0, 0.0], [0.3, 0.0], [-0.2, 0.0], [1.0, 0.0]]
    for call in (lambda: chart.metric_at(points),
                 lambda: ChartFields(chart, points).metric()):
        with pytest.raises(ExpressionDomainError) as failure:
            call()
        assert str(failure.value).startswith(
            "log of a non-positive value at point [0.3, 0.0]")
        assert failure.value.index == 1


def test_stack_evaluations_name_the_earliest_failing_point():
    # the same pair as a J, as a metric, as map components and summed in one
    # formula: every direct stack evaluation names index 1, where log fails,
    # not index 2, where sqrt fails in an entry or subexpression evaluated
    # first
    pair = ("0*sqrt(x1)", "0*log(x1 - 0.5)")
    structure = ChartManifold.from_strings(
        2, None, [["0", f"-1 + {pair[0]}"], [f"1 + {pair[1]}", "0"]])
    metric = ChartManifold.from_strings(
        2, [[f"1 + {pair[0]}", "0"], ["0", f"1 + {pair[1]}"]])
    spec = MapSpec.create(ChartManifold.euclidean(2), ChartManifold.euclidean(2),
                          ["sqrt(x1)", "log(x1 - 0.5)"])
    formula = parse_expression("sqrt(x1) + log(x1 - 0.5)", 2)
    points = np.array([[1.0, 0.0], [0.3, 0.0], [-0.2, 0.0], [1.0, 0.0]])
    for call in (lambda: structure.complex_structure_jet(points),
                 lambda: structure.complex_structure_at(points),
                 lambda: ChartFields(structure, points).structure(),
                 lambda: metric.metric_jet(points),
                 lambda: map_point(spec, points),
                 lambda: eval_jet2(formula, points)):
        with pytest.raises(ExpressionDomainError) as failure:
            call()
        assert str(failure.value).startswith(
            "log of a non-positive value at point [0.3, 0.0]")
        assert failure.value.index == 1


def test_metric_compatibility_of_connection():
    chart = ChartManifold.from_strings(
        2, [["1 + pow(x1,2)", "x1*x2"], ["x1*x2", "2 + pow(x2,2)"]])
    gen = np.random.default_rng(13)
    h = 1e-6
    for _ in range(5):
        p = gen.uniform(-0.7, 0.7, 2)
        X, Y = gen.standard_normal(2), gen.standard_normal(2)
        gamma = chart.metric_at(p)[1]
        nabla_x = np.einsum("kij,i,j->k", gamma, np.ones(2), X)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h

            def g_xy(q):
                G = np.array([[eval_value(chart.metric[i][j], q)
                               for j in range(2)] for i in range(2)])
                return X @ G @ Y

            lhs = (g_xy(p + e) - g_xy(p - e)) / (2 * h)
            G = np.array([[eval_value(chart.metric[i][j], p)
                           for j in range(2)] for i in range(2)])
            nx = np.einsum("lij,i,j->l", gamma, e / h, X)
            ny = np.einsum("lij,i,j->l", gamma, e / h, Y)
            rhs = nx @ G @ Y + X @ G @ ny
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))


def test_torsion_free_exact():
    chart = ChartManifold.from_strings(
        3, [["exp(2*x3)", "0", "0"], ["0", "1 + pow(x1,2)", "0"],
            ["0", "0", "1"]])
    gamma = chart.metric_at([0.3, -0.2, 0.4])[1]
    np.testing.assert_array_equal(gamma, np.transpose(gamma, (0, 2, 1)))


def test_almost_hermitian_standard():
    chart = ChartManifold.euclidean(4, STANDARD_J4)
    points = [np.zeros(4), np.array([0.5, -0.3, 0.2, 0.9])]
    result = check_almost_hermitian(ChartFields(chart, points))
    assert result.passed
    assert result.residual == 0.0


def test_almost_hermitian_identity_fails():
    identity = [["1", "0"], ["0", "1"]]
    chart = ChartManifold.euclidean(2, identity)
    result = check_almost_hermitian(ChartFields(chart, [np.zeros(2)]))
    assert result.status == "fail"


def test_almost_hermitian_missing_structure():
    chart = ChartManifold.euclidean(2)
    assert check_almost_hermitian(ChartFields(chart, [np.zeros(2)])).status == "error"


def test_target_checks_at_no_points_fold_nothing():
    # a constant chart with J^2 = -4 I keeps its point once a check reads
    # it; at no points both target checks pass with residual 0.0 and no
    # samples, before that point is kept and after
    chart = ChartManifold.euclidean(2, [["0", "-2"], ["2", "0"]])

    def at_no_points():
        return [check(ChartFields(chart, np.empty((0, 2)))).to_dict()
                for check in (check_almost_hermitian, check_kahler)]

    before = at_no_points()
    assert [(e["status"], e["residual"], e["samples"]) for e in before] == [
        ("pass", 0.0, 0)] * 2
    assert check_almost_hermitian(ChartFields(chart, [np.zeros(2)])).status == "fail"
    assert len(ChartFields(chart, np.empty((0, 2))).held.points) == 1  # kept
    assert at_no_points() == before


def test_target_checks_raise_where_the_metric_is_indefinite():
    # the target checks read the metric as the frames do: diag(x1, x1, 1, 1)
    # is indefinite at the third point, and both checks raise the located
    # error that metric() raises there
    metric = [[("x1" if i == j < 2 else "1" if i == j else "0") for j in range(4)]
              for i in range(4)]
    chart = ChartManifold.from_strings(4, metric, STANDARD_J4)
    points = [[1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.3, 0.0],
              [-0.25, 0.0, 0.9, 0.0], [2.0, 0.0, 0.0, 0.0]]
    message = ("metric is not positive definite at [-0.25, 0.0, 0.9, 0.0]: "
               "inner product is not positive definite (min eigenvalue -0.25)")
    for call in (lambda: ChartFields(chart, points).metric(),
                 lambda: check_almost_hermitian(ChartFields(chart, points)),
                 lambda: check_kahler(ChartFields(chart, points))):
        with pytest.raises(ChartError) as failure:
            call()
        assert (str(failure.value), failure.value.index) == (message, 2)


def test_rotated_structure_compatible_but_not_parallel():
    chart = ChartManifold.euclidean(4, rotated_j4())
    gen = np.random.default_rng(14)
    points = [gen.uniform(-1, 1, 4) for _ in range(5)]
    assert check_almost_hermitian(ChartFields(chart, points)).passed
    result = check_kahler(ChartFields(chart, points))
    assert result.status == "fail"
    assert result.residual > 0.1


def test_kahler_flat_standard():
    chart = ChartManifold.euclidean(4, STANDARD_J4)
    points = [np.zeros(4), np.array([0.1, 0.2, -0.4, 0.8])]
    result = check_kahler(ChartFields(chart, points))
    assert result.passed
    assert result.residual == 0.0


def test_kahler_conformal_standard_structure_fails():
    # regression value from the finite-difference route: the conformal factor
    # couples the two complex pairs, so the structure is not parallel
    metric = [[("exp(2*x1)" if i == j else "0") for j in range(4)]
              for i in range(4)]
    chart = ChartManifold.from_strings(4, metric, STANDARD_J4)
    gen = np.random.default_rng(15)
    points = [gen.uniform(-1, 1, 4) for _ in range(5)]
    result = check_kahler(ChartFields(chart, points))
    assert result.status == "fail"
    assert result.residual > 0.5


def test_kahler_warped_block_passes():
    # block-diagonal warping over one complex pair keeps the structure parallel
    metric = [["exp(2*x2)", "0", "0", "0"], ["0", "exp(2*x2)", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    chart = ChartManifold.from_strings(4, metric, STANDARD_J4)
    gen = np.random.default_rng(16)
    points = [gen.uniform(-1, 1, 4) for _ in range(5)]
    result = check_kahler(ChartFields(chart, points))
    assert result.passed


@pytest.mark.parametrize("curved", [False, True])
def test_kahler_direction_max_is_the_largest_frame_pair_value(curved):
    # direction_max is the largest |(nabla_e J) f| over the pairs e, f of
    # the Cholesky frame: one term of the residual's Frobenius norm, here
    # against finite differences of J and the metric
    metric = [[("exp(x1 + x3)" if i == j else "0") for j in range(4)]
              for i in range(4)] if curved else None
    chart = ChartManifold.from_strings(4, metric, rotated_j4())
    gen = np.random.default_rng(17)
    points = [gen.uniform(-1, 1, 4) for _ in range(3)]
    result = check_kahler(ChartFields(chart, points))
    assert result.status == "fail"
    assert result.detail["direction_max"] <= result.residual
    expected = 0.0
    for p in points:
        G = metric_values(chart, p)
        frame = np.linalg.inv(np.linalg.cholesky(G)).T  # g-orthonormal columns
        nabla = fd_nabla_j(chart, p)
        for e in frame.T:
            for f in frame.T:
                v = np.einsum("i,iab,b->a", e, nabla, f)
                expected = max(expected, np.sqrt(v @ G @ v))
    assert result.detail["direction_max"] == pytest.approx(expected, rel=1e-7)


def test_chart_fields_raise_failures_counted_from_lo():
    # sqrt(x1) leaves its domain at row 5; a window of the points from row 3
    # raises that failure as its row 2, naming the point
    chart = ChartManifold.from_strings(2, [["sqrt(x1)", "0"], ["0", "1"]])
    fields = ChartFields(chart, [[1.125 - 0.25 * i, 0.0] for i in range(8)])
    assert len(fields.metric(3, 5)[0].matrix) == 2
    with pytest.raises(ExpressionDomainError) as failure:
        fields.metric(3, 7)
    assert failure.value.index == 2
    assert str(failure.value) == ("sqrt of a negative value at point "
                                  "[-0.125, 0.0] in subexpression 'sqrt(x1)'")


@pytest.mark.parametrize("metric", [None, [["sqrt(x1)", "0"], ["0", "1"]]])
def test_chart_fields_raise_the_failure_they_carry_after_the_charts(metric):
    # images up to a point where the map fails carry that failure, past their
    # last row: reads of every row raise it, counted from lo, after any
    # earlier failure of the chart, and a window of the rows raises nothing
    chart = ChartManifold.from_strings(2, metric, [["0", "-1"], ["1", "0"]])
    beyond = ChartError("the map fails at the third point", 2)
    fields = ChartFields(chart, [[1.0, 0.0], [0.5, 0.0]], (2, beyond))
    assert len(fields.metric(0, 2)[0].matrix) in (1, 2)
    fields.structure(1, 2)
    for call, index in ((fields.metric, 2), (fields.structure, 2),
                        (lambda: fields.metric(1), 1),
                        (lambda: check_almost_hermitian(fields), 2),
                        (lambda: check_kahler(fields), 2)):
        with pytest.raises(ChartError) as failure:
            call()
        assert (failure.value, failure.value.index) == (beyond, index)
    if metric is not None:  # sqrt(x1) fails at the second row, before the map
        earlier = ChartFields(chart, [[1.0, 0.0], [-0.5, 0.0]], (2, beyond))
        for call in (earlier.metric, earlier.structure):
            with pytest.raises(ExpressionDomainError) as failure:
                call()
            assert failure.value.index == 1


def _chart_text(matrix, factor=""):
    return [[f"{x!r}{factor}" for x in row] for row in matrix.tolist()]


def _alone(chart, p):
    """The fields of the chart evaluated at the point p alone, from its jets:
    G, its InnerProduct, Gamma, J and nabla J."""
    G, dG = chart.metric_jet(p)
    ip = InnerProduct(G)
    gamma = christoffel(ip.inverse, dG)
    J, dJ = chart.complex_structure_jet(p)
    return G, ip, gamma, J, nabla_j(J, dJ, gamma)


def _metric_arrays(metric, gamma):
    return [getattr(metric, name) for name in ("matrix", "cholesky", "frame",
                                                "inverse")] + [gamma]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 4, 6)), st.integers(1, 6), st.integers(0, 2**16))
def test_constant_charts_are_shared_bit_for_bit(dim, count, seed):
    # a chart whose metric and J entries are all constants is evaluated once
    # and shared: every field that metric_at and ChartFields return is one
    # row, read-only, which equals the chart evaluated at each point alone.
    # A varying chart beside it keeps its own evaluation, a row per point.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    G = A @ A.T + 0.1 * np.eye(dim)
    G = 0.5 * (G + G.T)  # symmetric entry by entry, as the chart requires
    J = rng.standard_normal((dim, dim))
    constant = ChartManifold.from_strings(dim, _chart_text(G), _chart_text(J))
    varying = ChartManifold.from_strings(dim, _chart_text(G, "*exp(x1)"),
                                         _chart_text(J, "*cos(x2)"))
    points = rng.uniform(-1.0, 1.0, (count, dim))
    for chart in (constant, varying):
        for _ in range(2):  # the first use keeps a constant chart
            fields = ChartFields(chart, points)
            stacked = [*_metric_arrays(*fields.metric()), *fields.structure(),
                       *_metric_arrays(*chart.metric_at(points))]
            rows = 1 if chart is constant else count
            for i, p in enumerate(points):
                _, ip, gamma, J_i, nabla = _alone(chart, p)
                metric = _metric_arrays(ip, gamma)
                expected = [*metric, J_i, nabla, *metric]
                assert len(stacked) == len(expected)
                for got, want in zip(stacked, expected):
                    assert len(got) == rows
                    assert np.array_equal(got[i % rows], want)
                pointwise = _metric_arrays(*chart.metric_at(p))
                for got, want in zip(pointwise, metric):
                    assert np.array_equal(got, want)
                if chart is constant:
                    assert not any(x.flags.writeable for x in pointwise)
            if chart is constant:
                assert not any(x.flags.writeable for x in stacked)


@pytest.fixture
def evaluated(monkeypatch):
    """The number of points of each evaluation of chart entries from here on."""
    counts = []
    original = slantmap.charts.eval_jets

    def counted(expressions, p, order):
        counts.append(len(np.atleast_2d(p)))
        return original(expressions, p, order)

    monkeypatch.setattr(slantmap.charts, "eval_jets", counted)
    return counts


def test_a_constant_chart_is_evaluated_at_one_point_once(evaluated):
    # its first use evaluates every entry at one point, and no later use of
    # the chart, at any stack or point, evaluates an entry again
    chart = ChartManifold.euclidean(4, STANDARD_J4)
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 4))
    assert check_kahler(ChartFields(chart, points)).passed
    assert evaluated == [1, 1]  # the metric's jet and J's, at the first point
    chart.metric_at(points)
    chart.metric_at(points[2])
    ChartFields(chart, points[3:]).structure()
    assert check_almost_hermitian(ChartFields(chart, points)).passed
    assert evaluated == [1, 1]


FAILING_CONSTANT_CHARTS = {
    "indefinite": ([["1", "0"], ["0", "-1"]], [["0", "-1"], ["1", "0"]],
                   ChartError, "metric is not positive definite at {}: inner "
                   "product is not positive definite (min eigenvalue -1)"),
    "non_finite_metric": ([["exp(1000)", "0"], ["0", "1"]],
                          [["0", "-1"], ["1", "0"]], ExpressionDomainError,
                          "non-finite value at point {} in subexpression "
                          "'exp(1000.0)'"),
    "non_finite_j": (None, [["0", "-exp(1000)"], ["1", "0"]],
                     ExpressionDomainError, "non-finite value at point {} in "
                     "subexpression 'exp(1000.0)'"),
}


@pytest.mark.parametrize("case", sorted(FAILING_CONSTANT_CHARTS))
def test_failing_constant_charts_are_evaluated_on_every_call(case, evaluated):
    # a constant chart whose evaluation fails is not kept: each call
    # evaluates it again and raises the error of the caller's first point,
    # the target checks too
    metric, J, error, message = FAILING_CONSTANT_CHARTS[case]
    chart = ChartManifold.from_strings(2, metric, J)
    for first in ([0.25, -0.5], [-0.75, 0.5]):
        points = [first, [0.5, 0.5]]
        calls = [lambda: ChartFields(chart, points).structure(),
                 lambda: check_almost_hermitian(ChartFields(chart, points)),
                 lambda: check_kahler(ChartFields(chart, points))]
        if metric is not None:
            calls += [lambda: chart.metric_at(points),
                      lambda: chart.metric_at(first),
                      lambda: ChartFields(chart, points).metric()]
        for call in calls:
            before = len(evaluated)
            with pytest.raises(error) as failure:
                call()
            assert str(failure.value) == message.format(first)
            assert failure.value.index == 0
            assert len(evaluated) > before


def test_metric_at_evaluates_no_complex_structure(monkeypatch):
    # metric_at reads the metric alone: J and nabla J are evaluated when
    # they are read (a constant chart's first use evaluates them once, to
    # keep the chart)
    calls = []
    jet = ChartManifold.complex_structure_jet

    def spy(chart, p):
        calls.append(len(np.atleast_2d(p)))
        return jet(chart, p)

    monkeypatch.setattr(ChartManifold, "complex_structure_jet", spy)
    chart = ChartManifold.from_strings(2, [["exp(x1)", "0"], ["0", "exp(x1)"]],
                                       [["0", "-1"], ["1", "0"]])
    points = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])
    chart.metric_at(points)
    chart.metric_at(points[1])
    ChartFields(chart, points).metric(1, 2)
    assert calls == []
    assert check_kahler(ChartFields(chart, points)).passed
    assert calls == [3]


def test_a_constant_charts_one_point_fields_are_its_kept_arrays():
    # at any count of points metric(lo, hi) and structure(lo, hi) hand out
    # the kept point's read-only objects themselves, one row that stands
    # for every row
    chart = ChartManifold.from_strings(4, [["2", "1", "0", "0"],
                                           ["1", "2", "0", "0"],
                                           ["0", "0", "1", "0"],
                                           ["0", "0", "0", "1"]], STANDARD_J4)
    points = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 4))
    kept = ChartFields(chart, points[:1]).held
    J, nabla, _ = kept._structure
    one = [kept._ip, kept._gamma, J, nabla]
    for fields, lo, hi in ((ChartFields(chart, points[:1]), 0, 1),
                           (ChartFields(chart, points), 1, 2),
                           (ChartFields(chart, points), 0, 3)):
        got = [*fields.metric(lo, hi), *fields.structure(lo, hi)]
        assert all(x is y for x, y in zip(got, one)) and len(got) == len(one)
    arrays = [*vars(kept._ip).values(), kept._gamma, J, nabla]
    assert not any(x.flags.writeable for x in arrays)
    assert all(len(x) == 1 for x in arrays)


def _curved_charts():
    """Every varying chart of the catalog maps and of tests/data/maps, with
    points in it: the sample points of a source chart, their images in a
    target chart."""
    data = Path(__file__).resolve().parent / "data" / "maps"
    names = [f"catalog:{name}" for name in catalog_ids()] + [
        str(path) for path in sorted(data.glob("*.json"))]
    for name in names:
        spec = load_map_spec(name).spec
        points = sample_points(spec.box, 12, 5)
        for chart, at in ((spec.source, points),
                          (spec.target, np.array([map_point(spec, p) for p in points]))):
            if not chart.constant:
                yield chart, at


def test_metric_jet_and_christoffel_are_the_scatter_and_moveaxis_forms():
    # the gathered metric jet and the Christoffel symbols from fixed swaps
    # are the bits of the scatter of each entry's own jet and of the
    # np.moveaxis form, at a stack and at each point alone, on every curved
    # chart of the catalog and data maps and on random stacks of every shape
    charts = list(_curved_charts())
    assert len(charts) == 4
    for chart, points in charts:
        for p in (points, *points):
            G, dG = chart.metric_jet(p)
            for actual, expected in zip((G, dG), scatter_metric_jet(chart, p)):
                assert actual.shape == expected.shape
                assert actual.tobytes() == expected.tobytes()
            inverse = InnerProduct(G).inverse
            assert (christoffel(inverse, dG).tobytes()
                    == moveaxis_christoffel(inverse, dG).tobytes())
    rng = np.random.default_rng(46)
    for lead in ((), (5,), (3, 2)):
        for n in (1, 2, 4):
            inverse = rng.standard_normal(lead + (n, n))
            dG = rng.standard_normal(lead + (n, n, n))
            gamma = christoffel(inverse, dG)
            assert gamma.shape == lead + (n, n, n)
            assert gamma.tobytes() == moveaxis_christoffel(inverse, dG).tobytes()
