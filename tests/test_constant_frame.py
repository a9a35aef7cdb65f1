"""The one-frame route of a constant-coefficient map: ``Expression.affine``
accepts only formulas whose Hessian is zero and whose gradient is the same
at every point; a Sample of an affine map between constant charts
(``MapSpec.constant_frame``) builds one frame, at its first point, and the
constant target's checks read one point; reports and --points records are
the same bytes as over the blocks of every point's frame; and a map that
overflows at some sample points, or whose constants leave the floats, gets
the blocks' located errors.  The one frame is the map's: kept on its
MapSpec for a rank tolerance once a build succeeds, read-only, and read by
every later analysis of the map."""

import ast
import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slantmap.catalog
import slantmap.charts
import slantmap.maps
from oracles import fresh_spec
from slantmap.catalog import catalog_ids
from slantmap.charts import ChartManifold
from slantmap.expressions import (BinOp, Expression, ExpressionDomainError,
                                  Fun, Lit, Neg, eval_jet2, eval_jets,
                                  parse_expression)
from slantmap.loader import AnalysisSettings, LoadedMap, load_map_spec
from slantmap.maps import FrameStack, MapSpec, Sample, point_frame
from slantmap.slant import check_adapted_frame, classify_slant
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
    # the compiled jet at each point has no Hessian and, bit for bit, the
    # gradient that the formula keeps and eval_jets fills in
    expr = Expression(root, 3)
    if not expr.affine:
        return
    jet = eval_jet2(expr, np.array(points), 2)
    assert not jet.hess.any()
    rows = jet.grad.view(np.int64)
    assert (rows == expr.gradient.view(np.int64)).all()
    try:
        _, grad, hess = eval_jets([expr], np.array(points), 2)
    except ExpressionDomainError:  # a value that leaves the floats
        return
    assert not hess.any() and (grad.view(np.int64) == rows).all()


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


def _parsed_anew(identifier) -> LoadedMap:
    """The map of identifier parsed anew: a spec, charts and formulas of its
    own, which have planned and kept nothing.  A file is parsed on every
    load; a catalog map is shared, so its document is built again."""
    if not identifier.startswith("catalog:"):
        return load_map_spec(identifier)
    name = identifier[len("catalog:"):]
    alpha = slantmap.catalog._ENTRIES[name][1]
    spec = slantmap.catalog._build.__wrapped__(
        name, None if alpha is None else repr(alpha))
    return LoadedMap(spec, AnalysisSettings(), identifier)


# Each switch turns a fast route off at the one predicate it reads: a
# constant chart's one row (and with it the one frame), and affine formulas
# evaluated from their kept gradient rows.
FAST_ROUTES = {
    "constant_chart": (ChartManifold, "constant", property(lambda self: False)),
    "affine_gradient": (Expression, "gradient", None),
}


@pytest.mark.parametrize("identifier, samples", [
    *((identifier, 50) for identifier in MAPS),
    (str(DATA_MAPS / "warped_product.json"), 2000),
    (str(DATA_MAPS / "mixed_nonslant.json"), 2000)])
def test_fast_routes_write_the_general_routes_bytes(identifier, samples):
    # the report and the --points records with each fast route off, and
    # with both, are those of the routes as they are; every run parses the
    # map anew, since a plan and a gradient are kept on the formulas
    def outputs(switches):
        with pytest.MonkeyPatch.context() as patch:
            for switch in switches:
                patch.setattr(*FAST_ROUTES[switch])
            loaded = _parsed_anew(identifier)
            spec = loaded.spec
            assert "constant_chart" not in switches or not (
                spec.source.constant or spec.target.constant)
            assert "affine_gradient" not in switches or not any(
                c.affine for c in spec.components)
            loaded.settings.points = samples
            return _outputs(loaded)

    expected = outputs(())
    for switches in (("constant_chart",), ("affine_gradient",), tuple(FAST_ROUTES)):
        assert outputs(switches) == expected, switches


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


def _spied_splits(patch) -> list:
    """The number of points of every split_tangents call from here on."""
    split = []
    split_tangents = slantmap.maps.split_tangents

    def spy(jac, *args):
        split.append(len(jac))
        return split_tangents(jac, *args)

    patch.setattr(slantmap.maps, "split_tangents", spy)
    return split


def test_one_frame_is_built_at_the_first_point(monkeypatch):
    split = _spied_splits(monkeypatch)
    loaded = load_map_spec("catalog:example4")
    loaded.spec = fresh_spec(loaded.spec)  # a catalog spec is shared
    loaded.settings.points = 2000
    analysis = Analysis(loaded)
    report = analysis.report()
    assert report.check("riemannian_map").samples == 2000
    assert split == [1]
    ((rows, stack),) = analysis.sample.stacks()
    assert np.array_equal(stack.points, analysis.sample.points[:1])
    assert len(stack) == 1
    assert np.array_equal(rows, np.arange(2000))
    # a second analysis, of other points, builds no frame: the stack is the
    # spec's, still at the first point of the sample that built it
    split.clear()
    loaded.settings.seed = 7
    second = Analysis(loaded)
    assert second.report().check("riemannian_map").samples == 2000
    assert split == []
    ((rows, kept),) = second.sample.stacks()
    assert kept is stack
    assert np.array_equal(kept.points, analysis.sample.points[:1])
    assert np.array_equal(rows, np.arange(2000))


def test_a_constant_target_is_checked_at_one_point(monkeypatch):
    contracted = []
    pairings = slantmap.charts.pairings

    def spy(U, G, V):
        contracted.append(len(U))
        return pairings(U, G, V)

    monkeypatch.setattr(slantmap.charts, "pairings", spy)
    loaded = load_map_spec("catalog:slant_plane")
    # a fresh spec: the shared one's target keeps its residuals
    loaded.spec = fresh_spec(loaded.spec)
    loaded.settings.points = 2000
    analysis = Analysis(loaded)
    for name in ("almost_hermitian", "kahler"):
        entry = analysis.entry(name)
        assert (entry.status, entry.samples) == ("pass", 2000), name
    assert contracted == [1]
    # the chart keeps them: a second analysis, of other points, contracts
    # nothing and gets the same entries
    loaded.settings.seed = 7
    second = Analysis(loaded)
    for name in ("almost_hermitian", "kahler"):
        assert second.entry(name) == analysis.entry(name), name
    assert contracted == [1]


def test_a_constant_targets_failure_keeps_the_first_point_as_witness(monkeypatch):
    # J^2 = -4 I at every point: the one residual stands for every point;
    # the chart keeps its norms, so an analysis at another seed or sample
    # size forms no residual, and each takes its own first image as witness
    j = [[str(2 * float(x)) for x in row] for row in J4]
    spec = MapSpec.create(ChartManifold.euclidean(2),
                          ChartManifold.euclidean(4, j), ["x1", "0", "x2", "0"])
    formed = []
    structure_residuals = slantmap.charts.structure_residuals
    monkeypatch.setattr(slantmap.charts, "structure_residuals",
                        lambda *args: formed.append(1) or structure_residuals(*args))
    residuals = set()
    for points, seed in ((30, 42), (30, 7), (20, 42)):
        analysis = Analysis(LoadedMap(spec, AnalysisSettings(points=points, seed=seed),
                                      "generated"))
        entry = analysis.entry("almost_hermitian")
        assert (entry.status, entry.samples) == ("fail", points)
        # the target's points are the images
        assert entry.witness == {"point": analysis.sample.target.points[0].tolist()}
        residuals.add(entry.residual)
    assert len(residuals) == 1 and formed == [1]


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
    images = Sample(finite_f, sample_points(finite_f.box, 12, 1)).target.points
    assert images.shape == (12, 4) and np.isfinite(images).all()
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
        pairs = list(Sample(spec, sample_points(spec.box, count, 3)).stacks())
        assert sum(len(rows) for rows, _ in pairs) == count
        frames = sum(len(s) for _, s in pairs)
        assert frames == (1 if identifier in ONE_FRAME else count)


def test_an_adapted_frame_error_names_the_samples_own_point():
    # Q vanishes on anti_invariant, whose one frame stands for every point:
    # the error names the first point of the sample that asks, not the
    # point of the sample that built the frame; a residual that raises is
    # not kept, so the second sample forms it again
    spec = fresh_spec(load_map_spec("catalog:anti_invariant").spec)
    for seed in (1, 2):
        sample = Sample(spec, sample_points(spec.box, 4, seed))
        with pytest.raises(ValueError) as failure:
            check_adapted_frame(sample, classify_slant(sample))
        assert str(failure.value) == (
            "Q vanishes for an anti-invariant map: no adapted frame at point "
            f"{sample.points[0].tolist()}")


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


def _slant_plane():
    """A constant-coefficient map built here, so that no other test has
    analysed it: a proper slant plane in C^2, of angle 0.7."""
    c, s = math.cos(0.7), math.sin(0.7)
    return MapSpec.create(ChartManifold.euclidean(2), ChartManifold.euclidean(4, J4),
                          ["x1", f"x2 * {c!r}", f"x2 * {s!r}", "0"])


def test_a_second_analysis_reads_the_kept_frame(monkeypatch):
    # the frame is the map's, once per process: an analysis of other points
    # builds none, and its report and --points records are the bytes of a
    # frame per point, over blocks of 1, 7 and 1024 points
    spec = _slant_plane()
    _outputs(LoadedMap(spec, AnalysisSettings(points=30, seed=1), "generated"))
    split = _spied_splits(monkeypatch)
    second = LoadedMap(spec, AnalysisSettings(points=45, seed=9), "generated")
    outputs = _outputs(second)
    assert split == []
    assert json.loads(outputs[0])["slant"]["classification"] == "proper_slant"
    with pytest.MonkeyPatch.context() as patch:
        _route_off(patch)
        assert _outputs(second) == outputs
    _same_outputs_over_blocks(second)


def test_another_rank_tolerance_builds_the_frame_once(monkeypatch):
    # the spec keeps one frame, for the rank tolerance it was built with;
    # another tolerance builds once and replaces it
    spec = _slant_plane()
    split = _spied_splits(monkeypatch)
    for rank_tol, builds in ((1e-8, [1]), (1e-8, []), (1e-6, [1]), (1e-6, []),
                             (1e-8, [1])):
        split.clear()
        Analysis(LoadedMap(spec, AnalysisSettings(points=10, rank_tol=rank_tol),
                           "generated")).report()
        assert split == builds, rank_tol


def _ill_conditioned():
    # a constant source metric too close to singular for an orthonormal split
    c = "0.99999999999"
    return MapSpec.create(ChartManifold.from_strings(2, [["1", c], [c, "1"]]),
                          ChartManifold.euclidean(4, J4), ["x1", "0", "x2", "0"])


def _indefinite_target():
    metric = [[str(-1 if i == j == 1 else int(i == j)) for j in range(4)]
              for i in range(4)]
    return MapSpec.create(ChartManifold.euclidean(2),
                          ChartManifold.from_strings(4, metric, J4),
                          ["x1", "0", "x2", "0"])


@pytest.mark.parametrize("build, located", [
    (_ill_conditioned, lambda p: p),
    (_indefinite_target, lambda p: [p[0], 0.0, p[1], 0.0])])
def test_a_frame_that_fails_is_not_kept(build, located, monkeypatch):
    # every analysis builds again and gets the same entries, each error
    # naming the first point of its own sample (the image, for the target)
    spec = build()
    assert spec.constant_frame
    split = _spied_splits(monkeypatch)
    runs = []
    for seed in (1, 1, 2):
        split.clear()
        entries = _entries(LoadedMap(spec, AnalysisSettings(points=6, seed=seed),
                                     "generated"))
        reason = entries["riemannian_map"].reason
        assert str(located(sample_points(spec.box, 6, seed)[0].tolist())) in reason
        runs.append((list(split), {name: (e.status, e.reason)
                                   for name, e in entries.items() if e}))
    assert runs[0] == runs[1]
    assert runs[2][0] == runs[0][0]
    assert runs[2][1] != runs[0][1]


def test_the_kept_frames_members_are_read_only():
    # no check can change what the next analysis of the map reads, and a
    # varying map's stack members are read-only too; a row's members are
    # its caller's own
    analysis = Analysis(LoadedMap(_slant_plane(), AnalysisSettings(points=10),
                                  "generated"))
    analysis.report()
    ((_, kept),) = analysis.sample.stacks()
    ((_, varying),) = Sample(load_map_spec("catalog:warped_fiber").spec,
                             [[0.1, 0.2, 0.3]]).stacks()
    for stack in (kept, varying):
        for array in (stack.adapted_q, stack.q, stack.horizontal_derivatives.q,
                      stack.horizontal_derivatives.phi_defect, stack.adapted_sff,
                      stack.tension):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 7.0
        row = stack.row(0)
        row.q[...] = 7.0
        assert (row.q == 7.0).all() and not (stack.q == 7.0).any()
    for array in (kept.jacobian, kept.source_basis, kept.points):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 7.0


# the settings of the analyses that warm a spec before the one compared:
# another sample count (so that a value kept under a key that moves with it
# is not read again), another seed, then other check and angle tolerances
WARMING = ({"points": 7}, {"seed": 7}, {"check_tol": 1e-6, "angle_tol": 1e-3})
# the constant maps whose kept frames (of rank 2 and of rank 4) each check
# reads on its own
KEPT_CHECKS = ("catalog:example4", str(DATA_MAPS / "slant_product.json"))


def _run(loaded, spec, samples, **settings):
    settings = AnalysisSettings(**{"points": samples, **settings})
    return _outputs(replace(loaded, spec=spec, settings=settings))


def _warmed(loaded, samples) -> MapSpec:
    """A fresh copy of loaded's spec, after the analyses of WARMING."""
    spec = fresh_spec(loaded.spec)
    for settings in WARMING:
        _run(loaded, spec, samples, **settings)
    return spec


@pytest.mark.parametrize("samples", [50, 2000])
@pytest.mark.parametrize("identifier", MAPS)
def test_warm_reports_equal_cold_ones(identifier, samples):
    # what a spec and its charts keep (the frame, the angle ranges, each
    # check's residual norms, the target's residuals, the classification's
    # statistics per sample size) gives the bytes of a spec that has kept
    # nothing, after analyses with other settings: the report and the
    # --points records, and each check's report on its own
    loaded = load_map_spec(identifier)
    spec = _warmed(loaded, samples)
    assert _run(loaded, spec, samples) == _run(loaded, fresh_spec(spec), samples)
    if identifier in KEPT_CHECKS and samples == 50:
        settings = AnalysisSettings(points=samples)
        for name in CHECK_NAMES:
            warm, cold = (Analysis(replace(loaded, spec=kept), settings)
                          .report((name,)) for kept in (_warmed(loaded, samples),
                                                        fresh_spec(loaded.spec)))
            assert render_report(warm) == render_report(cold), name


def _spied_members(patch) -> list:
    """The names of what a warm analysis need not form, formed from here
    on: the adapted frames (whose Gram norms the stack keeps), the angle
    ranges and the target checks' residuals, |J^2 + I| and the rest
    (``structure_residuals``) and the lengths of (nabla_e J) f
    (``pairings``), which charts calls for nothing else."""
    formed = []

    def spy(name, func):
        def counted(*args):
            formed.append(name)
            return func(*args)
        return counted

    patch.setattr(FrameStack, "adapted_frames",
                  spy("adapted_frames", FrameStack.adapted_frames))
    member = FrameStack.__dict__["angle_ranges"]
    patch.setattr(member, "func", spy("angle_ranges", member.func))
    for name in ("structure_residuals", "pairings"):
        patch.setattr(slantmap.charts, name,
                      spy(name, getattr(slantmap.charts, name)))
    return formed


@pytest.mark.parametrize("identifier", sorted(ONE_FRAME))
def test_a_warm_analysis_forms_no_kept_member(identifier, monkeypatch):
    # the first analysis of a spec forms each of these once; a second, of
    # other points and check tolerance, forms none; another angle tolerance
    # moves the adapted frame's key, which forms the adapted frames once
    # more, and nothing else
    loaded = load_map_spec(identifier)
    spec = fresh_spec(loaded.spec)
    formed = _spied_members(monkeypatch)
    first = Analysis(replace(loaded, spec=spec,
                             settings=AnalysisSettings(points=30)))
    first.report()
    assert sorted(formed) == sorted(
        ["angle_ranges", "structure_residuals", "pairings"]
        + ["adapted_frames"] * first.slant.sec_defined)
    for settings, expected in (({"seed": 7, "check_tol": 1e-6}, []),
                               ({"angle_tol": 1e-3}, ["adapted_frames"]),
                               ({"angle_tol": 1e-3}, [])):
        formed.clear()
        _run(loaded, spec, 40, **settings)
        assert formed == (expected if first.slant.sec_defined else []), settings
    # the kept arrays are read-only
    ((_, stack),) = first.sample.stacks()
    kept = [stack.angle_ranges]
    if spec.target.complex_structure is not None:
        held = first.sample.target.held
        assert held is not first.sample.target  # the chart's kept point
        kept += [held._gamma, held._ip.matrix, *held._structure[:2],
                 *(norms for name in ("almost_hermitian", "kahler")
                   for norms, _ in held.__dict__["norms: " + name][1])]
    for array in kept:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 7.0


def test_a_kept_frame_folds_its_residuals_once(monkeypatch):
    # a second analysis of a fresh constant-frame spec, with another seed,
    # reads the residual norms its stack and its target kept, forms no
    # residual and takes no point_norms, and reads the classification's
    # statistics its stack kept for the sample size; another sample size
    # forms those statistics once and moves the keys that depend on it
    # (lambda and mu, the mean angle's cos^2), and another angle tolerance
    # the adapted frame's, so those residuals are formed again, and each run
    # writes a fresh spec's bytes
    loaded = load_map_spec("catalog:example4")
    spec = fresh_spec(loaded.spec)
    calls = Counter()
    for module, name in ((slantmap.slant, "structure_residuals"),
                         (slantmap.slant, "mixed_sff"),
                         (slantmap.maps, "gram_residual"),
                         (slantmap.slant, "gram_residual"),
                         (slantmap.slant, "omega_defect_algebraic"),
                         (slantmap.maps, "point_norms"),
                         (slantmap.charts, "point_norms"),
                         (slantmap.slant, "_statistics")):
        def counted(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    first = _run(loaded, spec, 50)
    assert {"structure_residuals", "mixed_sff", "gram_residual",
            "omega_defect_algebraic"} <= set(calls)
    assert calls["_statistics"] == 1
    slant = json.loads(first[0])["slant"]
    for settings, samples in (({"seed": 7}, 50), ({"angle_tol": 1e-3}, 50),
                              ({"angle_tol": 1e-3}, 30)):
        calls.clear()
        warm = _run(loaded, spec, samples, **settings)
        formed = dict(calls)
        assert warm == _run(loaded, fresh_spec(spec), samples, **settings)
        if samples == 30:  # the fits' lambda moved, so its residuals fold anew
            assert json.loads(warm[0])["slant"]["lambda_estimate"] != (
                slant["lambda_estimate"])
            assert formed["point_norms"] >= 4 and "gram_residual" not in formed
            assert formed["_statistics"] == 1
        else:  # the adapted frame's Gram residual alone reads angle_tol
            assert formed == ({"gram_residual": 1, "point_norms": 1}
                              if "angle_tol" in settings else {}), settings


def test_no_module_under_src_rebinds_a_global():
    # what the library keeps for the process lives on its owner (a spec, a
    # chart, a stack: charts.kept), so no module rebinds a global
    src = Path(__file__).resolve().parent.parent / "src" / "slantmap"
    modules = sorted(src.rglob("*.py"))
    assert len(modules) >= 11
    found = [f"{path.name}:{node.lineno}: global {', '.join(node.names)}"
             for path in modules for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []
