"""The one-frame route of a constant-coefficient map: ``Expression.affine``
accepts only formulas whose Hessian is zero and whose gradient is the same
at every point; a Sample of an affine map between constant charts
(``MapSpec.constant_frame``) builds one frame, at its first point, and the
constant target's checks read one point; reports and --points records are
the same bytes as over the blocks of every point's frame; and a map that
overflows at some sample points, or whose constants leave the floats, gets
the blocks' located errors."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slantmap.charts
import slantmap.maps
from slantmap.catalog import catalog_ids
from slantmap.charts import ChartManifold
from slantmap.expressions import (BinOp, Expression, ExpressionDomainError,
                                  Fun, Lit, Neg, eval_jets, parse_expression)
from slantmap.loader import AnalysisSettings, LoadedMap, load_map_spec
from slantmap.maps import MapSpec, Sample, point_frame
from slantmap.report import (CHECK_NAMES, Analysis, render_json,
                             render_report, sample_points)
from test_properties import (PROPERTY_SETTINGS, TREES, VARIABLES,
                             _linear_riemannian_maps)

DATA_MAPS = Path(__file__).resolve().parent / "data" / "maps"
MAPS = ([f"catalog:{name}" for name in catalog_ids()]
        + [str(path) for path in sorted(DATA_MAPS.glob("*.json"))])
J4 = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
      ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]


@pytest.mark.parametrize("text, affine", [
    ("x1", True), ("3", True), ("-x2", True), ("x1 - 2*x3 + 0.5", True),
    ("(x2+x3)/sqrt(3)", True), ("x2*0.25*4", True), ("pow(2, 3)*x1", True),
    ("-(x1 + x2)/-(4)", True), ("x1*1e308 + 1e308", True),
    ("x1*x2", False), ("pow(x1,2)", False), ("sin(x1)", False),
    ("1/x1", False), ("pow(sqrt(x1),0)", False), ("x1/0", False),
    ("pow(x1,1)", True), ("x1*(x2 - x2)", False), ("x1/(1 - 1)", False),
    ("x1*sqrt(-1)", False), ("x1 + log(-1)", False), ("x1 + 1e400", True),
    ("x1*(1e308*10)", True), ("x1/5e-324", True), ("1e308*10", True),
    ("x1 + 1e308*10", True), ("1/0", False)])
def test_affine_table(text, affine):
    # the compiler's verdict: a constant that leaves the floats is affine
    # too, and F's evaluation at each point says that it is not finite
    assert parse_expression(text, 3).affine is affine


def _affine_branches(children):
    constants = st.floats(-4.0, 4.0, allow_nan=False).map(Lit)
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(BinOp, st.just("*"), constants, children),
        st.builds(BinOp, st.just("/"), children, constants))


# affine trees and near misses: constant subtrees may hold functions
AFFINE_TREES = st.recursive(
    VARIABLES | st.floats(0.0, 1e6, allow_nan=False).map(Lit)
    | st.builds(Fun, st.sampled_from(("sqrt", "exp", "log", "sin")),
                st.floats(0.0, 4.0).map(Lit)),
    _affine_branches, max_leaves=10)


@PROPERTY_SETTINGS
@given(AFFINE_TREES | TREES,
       st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 3), min_size=2, max_size=6))
def test_affine_formulas_have_zero_hessians_and_equal_gradient_rows(root,
                                                                    points):
    expr = Expression(root, 3)
    if not expr.affine:
        return
    try:
        _, grad, hess = eval_jets([expr], np.array(points), 2)
    except ExpressionDomainError:  # a value that leaves the floats
        return
    assert not hess.any()
    rows = grad.view(np.int64)
    assert (rows == rows[:1]).all()


def _route_off(patch):
    # a property: the value cached on a shared spec would shadow an attribute
    patch.setattr(MapSpec, "constant_frame", property(lambda self: False))


def _outputs(loaded):
    """The report and the --points records of a run, as written."""
    analysis = Analysis(loaded)
    text = render_report(analysis.report())
    return text, render_json(analysis.point_records())


def _same_outputs_over_blocks(loaded):
    expected = None
    for block in (1, 7, 1024):
        for route in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(slantmap.maps, "FRAME_BLOCK", block)
                if not route:
                    _route_off(patch)
                outputs = _outputs(loaded)
            expected = expected or outputs
            assert outputs == expected, (block, route)


@pytest.mark.parametrize("identifier", MAPS)
def test_reports_and_points_equal_the_block_route(identifier):
    loaded = load_map_spec(identifier)
    loaded.settings.points = 20
    _same_outputs_over_blocks(loaded)


@st.composite
def _affine_maps(draw):
    """Affine components, with sums, differences, negations, products with
    and divisions by constants and some zero coefficients, between the
    constant SPD metrics (and standard J) of ``_linear_riemannian_maps``."""
    spec = draw(_linear_riemannian_maps())
    n, m = spec.source.dim, spec.target.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    forms = ("({c!r})*x{i}", "x{i}/({c!r})", "-x{i}*({c!r})",
             "(x{i} - {c!r})*2")
    components = []
    for _ in range(m):
        terms = [forms[rng.integers(len(forms))].format(
            c=float(rng.uniform(-2.0, 2.0)) or 1.0, i=i + 1)
            for i in range(n) if rng.random() < 0.7]
        components.append(" + ".join(terms + [repr(float(rng.uniform(-1, 1)))]))
    return MapSpec.create(spec.source, spec.target, components, name="affine")


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(_linear_riemannian_maps() | _affine_maps(), st.integers(1, 12),
       st.integers(0, 2**16))
def test_random_affine_maps_equal_the_block_route(spec, count, seed):
    assert all(c.affine for c in spec.components)
    _same_outputs_over_blocks(LoadedMap(
        spec, AnalysisSettings(points=count, seed=seed), "generated"))


def test_one_frame_is_built_at_the_first_point(monkeypatch):
    split = []
    split_tangents = slantmap.maps.split_tangents

    def spy(jac, *args):
        split.append(len(jac))
        return split_tangents(jac, *args)

    monkeypatch.setattr(slantmap.maps, "split_tangents", spy)
    loaded = load_map_spec("catalog:example4")
    loaded.settings.points = 2000
    analysis = Analysis(loaded)
    report = analysis.report()
    assert report.check("riemannian_map").samples == 2000
    assert split == [1]
    (stack,) = analysis.sample.stacks()
    assert np.array_equal(stack.points, analysis.sample.points[:1])
    assert len(stack) == 1
    assert np.array_equal(stack.rows, np.arange(2000))


def test_a_constant_target_is_checked_at_one_point(monkeypatch):
    contracted = []
    pairings = slantmap.charts.pairings

    def spy(U, G, V):
        contracted.append(len(U))
        return pairings(U, G, V)

    monkeypatch.setattr(slantmap.charts, "pairings", spy)
    loaded = load_map_spec("catalog:slant_plane")
    loaded.settings.points = 2000
    analysis = Analysis(loaded)
    for name in ("almost_hermitian", "kahler"):
        entry = analysis.entry(name)
        assert (entry.status, entry.samples) == ("pass", 2000), name
    assert contracted == [1]


def test_a_constant_targets_failure_keeps_the_first_point_as_witness():
    # J^2 = -4 I at every point: the one residual stands for every point
    j = [[str(2 * float(x)) for x in row] for row in J4]
    spec = MapSpec.create(ChartManifold.euclidean(2),
                          ChartManifold.euclidean(4, j), ["x1", "0", "x2", "0"])
    analysis = Analysis(LoadedMap(spec, AnalysisSettings(points=30), "generated"))
    entry = analysis.entry("almost_hermitian")
    assert (entry.status, entry.samples) == ("fail", 30)
    # the target's points are the images
    assert entry.witness == {"point": analysis.sample.images[0].tolist()}


def _entries(loaded):
    analysis = Analysis(loaded)
    return {name: analysis.entry(name) for name in CHECK_NAMES}


def _overflowing_map(component, half_width=1.0):
    return MapSpec.create(ChartManifold.euclidean(2),
                          ChartManifold.euclidean(4, J4),
                          [component, "0", "x2", "0"],
                          box=[(-half_width, half_width), (-1.0, 1.0)])


def test_an_overflow_at_some_points_gets_the_blocks_errors():
    # F_* is finite everywhere, F itself overflows where x1 > 0.797...: the
    # frame at the first point builds, yet every entry is the blocks' error
    # at the first point that overflows
    spec = _overflowing_map("x1*1e308 + 1e308")
    seed = next(s for s in range(100)
                if (lambda x: x[0, 0] < 0.5 and (x[1:, 0] > 0.9).any())(
                    sample_points(spec.box, 12, s)))
    point_frame(spec, sample_points(spec.box, 12, seed)[0])  # builds
    cases = [(spec, seed)]
    # constants that leave the floats: F is not finite at any point; and
    # x1*1e308*10 on |x1| <= 0.01, whose F is finite and F_* infinite
    cases += [(_overflowing_map(component), 1) for component in (
        "x1 + 1e400", "x1*(1e308*10)", "x1/5e-324", "1e308*10",
        "x1 + 1e308*10")]
    finite_f = _overflowing_map("x1*1e308*10", 0.01)
    assert np.isfinite(Sample(finite_f, sample_points(finite_f.box, 12, 1))
                       .images).all()
    cases.append((finite_f, 1))
    for spec, seed in cases:
        assert spec.constant_frame, spec.components[0]
        loaded = LoadedMap(spec, AnalysisSettings(points=12, seed=seed),
                           "generated")
        route = _entries(loaded)
        with pytest.MonkeyPatch.context() as patch:
            _route_off(patch)
            assert _entries(loaded) == route, spec.components[0]
        reason = route["riemannian_map"].reason
        assert reason.startswith(
            "ExpressionDomainError: non-finite value at point"), reason
        _same_outputs_over_blocks(loaded)


# the maps whose frame is the same at every point
ONE_FRAME = {"catalog:identity2", "catalog:invariant", "catalog:anti_invariant",
             "catalog:example4", "catalog:slant_plane", "catalog:compose_slant",
             str(DATA_MAPS / "slant_product.json")}


@pytest.mark.parametrize("identifier", MAPS)
def test_exactly_the_constant_coefficient_maps_hold_one_frame(identifier):
    spec = load_map_spec(identifier).spec
    assert spec.constant_frame is (identifier in ONE_FRAME)
    for count in (1, 5, slantmap.maps.FRAME_BLOCK + 3):
        stacks = list(Sample(spec, sample_points(spec.box, count, 3)).stacks())
        assert sum(len(s.rows) for s in stacks) == count
        frames = sum(len(s) for s in stacks)
        assert frames == (1 if identifier in ONE_FRAME else count)


def test_a_constant_power_of_a_root_gets_the_same_bytes():
    # pow(sqrt(x1 + 1), 0) is 1 on the box, with sqrt's domain still tested
    # at each point: the compiler finds the component affine
    spec = MapSpec.create(ChartManifold.euclidean(2),
                          ChartManifold.euclidean(4, J4),
                          ["x1", "0", "pow(sqrt(x1+1),0)*x2", "0"],
                          box=[(-0.5, 1.0), (-1.0, 1.0)])
    assert spec.constant_frame
    _same_outputs_over_blocks(
        LoadedMap(spec, AnalysisSettings(points=20), "generated"))


FRAME = point_frame(load_map_spec("catalog:warped_fiber").spec, [0.1, 0.2, 0.3])


@pytest.mark.parametrize("call, message", [
    (lambda: FRAME.sff_value(np.ones(2), np.ones(3)),
     "X has shape (2,), expected (3,) or (3, k)"),
    (lambda: FRAME.sff_value(np.ones(3), np.ones((2, 4))),
     "Y has shape (2, 4), expected (3,) or (3, k)")])
def test_shape_errors_are_located(call, message):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == message
