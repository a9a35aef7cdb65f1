import numpy as np
import pytest

from slantmap.charts import (ChartError, ChartManifold, check_almost_hermitian,
                             check_kahler)
from slantmap.expressions import eval_value
from oracles import fd_christoffel

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
    result = check_almost_hermitian(chart, points)
    assert result.passed
    assert result.residual == 0.0


def test_almost_hermitian_identity_fails():
    identity = [["1", "0"], ["0", "1"]]
    chart = ChartManifold.euclidean(2, identity)
    result = check_almost_hermitian(chart, [np.zeros(2)])
    assert result.status == "fail"


def test_almost_hermitian_missing_structure():
    chart = ChartManifold.euclidean(2)
    assert check_almost_hermitian(chart, [np.zeros(2)]).status == "error"


def test_rotated_structure_compatible_but_not_parallel():
    chart = ChartManifold.euclidean(4, rotated_j4())
    gen = np.random.default_rng(14)
    points = [gen.uniform(-1, 1, 4) for _ in range(5)]
    assert check_almost_hermitian(chart, points).passed
    result = check_kahler(chart, points)
    assert result.status == "fail"
    assert result.residual > 0.1


def test_kahler_flat_standard():
    chart = ChartManifold.euclidean(4, STANDARD_J4)
    points = [np.zeros(4), np.array([0.1, 0.2, -0.4, 0.8])]
    result = check_kahler(chart, points)
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
    result = check_kahler(chart, points)
    assert result.status == "fail"
    assert result.residual > 0.5


def test_kahler_warped_block_passes():
    # block-diagonal warping over one complex pair keeps the structure parallel
    metric = [["exp(2*x2)", "0", "0", "0"], ["0", "exp(2*x2)", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    chart = ChartManifold.from_strings(4, metric, STANDARD_J4)
    gen = np.random.default_rng(16)
    points = [gen.uniform(-1, 1, 4) for _ in range(5)]
    result = check_kahler(chart, points)
    assert result.passed


def test_kahler_residual_stable_under_direction_resampling():
    chart = ChartManifold.euclidean(4, rotated_j4())
    points = [np.array([0.4, -0.1, 0.3, 0.2])]
    first = check_kahler(chart, points, dirs=16, seed=1)
    second = check_kahler(chart, points, dirs=16, seed=2)
    assert abs(first.residual - second.residual) <= 1e-9
