"""Properties of the jets over random expression trees in x1..x3: stacked
and one-point evaluations agree bit for bit, the jets agree with the
finite-difference oracles, and printing then parsing gives the tree back.
And the witness reduction of the checks, over the stacks of a Sample, takes
the witness of the reference fold."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import slantmap.maps
from slantmap.expressions import (BinOp, Expression, ExpressionDomainError,
                                  Fun, Lit, Neg, Pow, Var, eval_jet2,
                                  parse_expression, to_text)
from slantmap.charts import ChartManifold
from slantmap.maps import MapSpec, Sample, pair_fields
from oracles import fd_gradient, fd_hessian, fold_worst_residual

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


# Residuals from a small set, so that ties, zeros, inf and NaN are common
RESIDUALS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 3.0, np.inf, np.nan, -1.0])
# rank 1 where x1 = 0, rank 2 elsewhere
PINCH = MapSpec.create(ChartManifold.euclidean(2), ChartManifold.euclidean(2),
                       ["x1*x1/2", "x2"])


@st.composite
def _pair_residuals(draw):
    """Residuals over horizontal pairs at up to 14 points of rank 1 or 2."""
    count = draw(st.integers(0, 14))
    ranks = draw(st.lists(st.sampled_from([1, 2]), min_size=count,
                          max_size=count))
    return [np.array(draw(st.lists(RESIDUALS, min_size=r * r, max_size=r * r))
                     ).reshape(r, r) for r in ranks]


@PROPERTY_SETTINGS
@given(_pair_residuals())
def test_worst_residual_matches_the_reference_fold(per_point):
    # the residuals reach the reduction as the stacks of a Sample hold their
    # points: blocks of three, one stack per rank in a block
    points = [[0.0 if len(r) == 1 else 0.5, 0.1 * i]
              for i, r in enumerate(per_point)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slantmap.maps, "FRAME_BLOCK", 3)
        sample = Sample(PINCH, points)

        def residuals(stack):
            assert all(len(per_point[i]) == stack.rank for i in stack.rows)
            return np.stack([per_point[i] for i in stack.rows])

        actual = sample.worst(residuals, pair_fields)
    expected = fold_worst_residual(
        (value, point, pair_fields(a, b))
        for point, pairs in zip(points, per_point)
        for (a, b), value in np.ndenumerate(pairs))
    assert actual == expected
