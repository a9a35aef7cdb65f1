import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import slantmap
from slantmap.catalog import catalog_ids, load_catalog
from slantmap.charts import ChartError, ChartManifold
from slantmap.expressions import ExpressionDomainError, parse_expression
from slantmap.linalg import InnerProduct, split_tangent
from slantmap.loader import AnalysisSettings, LoadedMap
from slantmap.maps import (MapDefinitionError, MapSpec, Sample,
                           check_sff_range_perp, differential, fiber_trace,
                           is_riemannian_map, map_point, point_frame,
                           second_fundamental_form, section_derivatives,
                           tension_field)
from slantmap.report import run_analysis, sample_points
from slantmap.slant import (adapted_frame, check_harmonic,
                            check_minimal_fibers, point_operators, q_matrix,
                            q_operator, slant_angle)
from oracles import fd_sff, fresh_spec

EUCLIDEAN_2 = ChartManifold.euclidean(2)


def parabola_map():
    """x -> (x, x^2) from the line into the plane."""
    return MapSpec.create(ChartManifold.euclidean(1), EUCLIDEAN_2,
                          ["x1", "x1*x1"])


def test_component_count_must_match_target():
    with pytest.raises(MapDefinitionError):
        MapSpec.create(ChartManifold.euclidean(2), EUCLIDEAN_2, ["x1"])


def test_differential_example4_constant_rows(example4):
    gen = np.random.default_rng(21)
    expected = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1 / np.sqrt(3), 1 / np.sqrt(3), 0.0],
        [0.0, 1 / np.sqrt(6), 1 / np.sqrt(6), 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    for _ in range(3):
        jac = differential(example4, gen.uniform(-1, 1, 4))
        np.testing.assert_allclose(jac, expected, atol=1e-15)


def test_differential_identity_and_analytic():
    ident = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["x1", "x2"])
    np.testing.assert_array_equal(differential(ident, [0.3, 0.4]), np.eye(2))
    curved = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["x1*x1", "x2"])
    np.testing.assert_allclose(differential(curved, [1.0, 1.0]),
                               [[2.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_differential_is_located_and_stacks_by_point():
    # a constant that leaves the floats: the Jacobian is not finite, and the
    # error names the point and the subexpression, as map_point's does
    overflow = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["x1*(1e308*10)", "x2"])
    with pytest.raises(ExpressionDomainError) as failure:
        differential(overflow, [0.0, 0.5])
    assert str(failure.value) == ("non-finite value at point [0.0, 0.5] in "
                                  "subexpression '1e+308 * 10.0'")
    spec = load_catalog("warped_fiber")
    points = np.random.default_rng(26).uniform(-1, 1, (5, 3))
    stacked = differential(spec, points)
    assert stacked.shape == (5, 4, 3)
    for p, jac in zip(points, stacked):
        np.testing.assert_array_equal(differential(spec, p), jac)


def test_riemannian_example4(example4, sample_box):
    points = sample_box(example4.box, 12, 31)
    result = is_riemannian_map(Sample(example4, points))
    assert result.passed
    assert result.residual <= 1e-12
    assert result.detail == {"rank": 2, "rank_constant": True,
                             "eikonal_residual": pytest.approx(0.0, abs=1e-12)}


def test_sample_frames_are_built_once_and_bound_to_the_map(example4,
                                                           sample_box):
    points = sample_box(example4.box, 5, 32)
    sample = Sample(example4, points)
    assert is_riemannian_map(sample) == is_riemannian_map(
        Sample(example4, points))
    first = list(sample.stacks())
    assert check_sff_range_perp(sample).passed
    assert all(a is b for a, b in zip(first, sample.stacks()))
    assert sum(len(rows) for rows, _ in first) == len(sample) == 5


def test_riemannian_rejects_dilation():
    dilation = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["2*x1", "2*x2"])
    result = is_riemannian_map(
        Sample(dilation, [np.zeros(2), np.ones(2) * 0.5]))
    assert result.status == "fail"
    # the Gram matrix less I is 3 I: its Frobenius norm is 3 sqrt(2)
    assert result.residual == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-12)


def test_riemannian_composed_slant_construction(sample_box):
    # submersion followed by a tilted isometric immersion stays Riemannian;
    # oracle: direct Gram computation of the pushed-forward horizontal frame
    spec = load_catalog("compose_slant(alpha=0.7)")
    points = sample_box(spec.box, 10, 32)
    result = is_riemannian_map(Sample(spec, points))
    assert result.passed
    for p in points:
        frame = point_frame(spec, p)
        pushed = frame.jacobian @ frame.split.horizontal.columns
        gram = pushed.T @ frame.g_target.matrix @ pushed
        assert np.abs(gram - np.eye(frame.rank)).max() <= 1e-12


def test_rank_drop_reported():
    pinch = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["x1*x1/2", "x2"])
    points = [np.array([0.0, 0.0]), np.array([0.9, 0.1])]
    result = is_riemannian_map(Sample(pinch, points))
    assert result.status == "fail"
    assert "subimmersion" in result.reason


def test_a_vanishing_differential_fails_with_its_reason():
    # rank 0 at every point: the Gram residual of no columns is 0.0, and the
    # reason fails the map, with no witness
    zero = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["0", "0"])
    result = is_riemannian_map(Sample(zero, [np.zeros(2), np.ones(2) * 0.5]))
    assert result.to_dict() == {
        "name": "riemannian_map", "status": "fail", "residual": 0.0,
        "tol": 1e-08, "samples": 2,
        "reason": "differential vanishes on this box: rank is zero",
        "detail": {"rank": 0, "rank_constant": True, "eikonal_residual": 0.0}}


# Entries of the pinch map at points of rank 1 (x1 = 0) and rank 2, taken
# from the checks when they still read the frames one at a time
PINCH_POINTS = [[0.0, 0.3], [0.9, 0.1], [-0.6, -0.8], [0.0, -0.5], [0.3, 0.7],
                [0.0, 0.9], [-0.2, 0.4]]
PINCH_ENTRIES = {
    is_riemannian_map: {
        "name": "riemannian_map", "status": "fail", "residual": 0.96,
        "tol": 1e-08, "samples": 7,
        "reason": "rank varies across samples: not a subimmersion on this box",
        "witness": {"point": [-0.2, 0.4]},
        # |F_*|^2 - rank: 0 where x1 = 0, |x1^2 - 1| elsewhere
        "detail": {"rank": [1, 2], "rank_constant": False,
                   "eikonal_residual": pytest.approx(0.96, abs=1e-12)}},
    check_sff_range_perp: {
        "name": "sff_range_perp", "status": "fail", "residual": 1.0,
        "tol": 1e-08, "samples": 7,
        "witness": {"point": [0.9, 0.1]}},
    check_harmonic: {
        "name": "harmonic", "status": "fail", "residual": 1.0, "tol": 1e-08,
        "samples": 7, "witness": {"point": [0.0, 0.3]}},
    check_minimal_fibers: {
        "name": "minimal_fibers", "status": "skipped",
        "reason": "map is an immersion: the kernel is trivial"},
}


@pytest.mark.parametrize("block", [1024, 2])
def test_mixed_rank_sample_entries(block, monkeypatch):
    # the points of each rank form their own stack in every block; the
    # entries, witnesses included, are those of the points read in order
    monkeypatch.setattr(slantmap.maps, "FRAME_BLOCK", block)
    pinch = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["x1*x1/2", "x2"])
    for check, entry in PINCH_ENTRIES.items():
        result = check(Sample(pinch, PINCH_POINTS)).to_dict()
        assert result.keys() == entry.keys()
        for key, value in entry.items():
            if key == "residual":
                assert result[key] == pytest.approx(value, abs=1e-12)
            else:
                assert result[key] == value


def _counted_builds(monkeypatch) -> list:
    """The points of every maps.frame_block build from here on."""
    builds = []
    original = slantmap.maps.frame_block

    def counted(spec, points, *args):
        builds.append(np.asarray(points).tolist())
        return original(spec, points, *args)

    monkeypatch.setattr(slantmap.maps, "frame_block", counted)
    return builds


def test_failing_block_is_built_again_once(monkeypatch):
    # a failure carries its row, so a block that fails is built once more, up
    # to that row, and not searched
    builds = _counted_builds(monkeypatch)
    spec = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["sqrt(x1)", "x2"])
    sample = Sample(spec, [[0.95 - 0.1 * i, 0.0] for i in range(15)])
    with pytest.raises(ExpressionDomainError, match="sqrt of a negative"):
        list(sample.stacks())
    assert [len(points) for points in builds] == [15, 10]


FIRST_POINT_FAILS = {
    "component": MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["sqrt(x1)", "x2"]),
    "source_metric": MapSpec.create(
        ChartManifold.from_strings(2, [["x1", "0"], ["0", "1"]]), EUCLIDEAN_2,
        ["x1", "x2"]),
    "target_structure": MapSpec.create(
        EUCLIDEAN_2, ChartManifold.euclidean(2, [["0", "-1 + 0*log(x1)"],
                                                 ["1", "0"]]),
        ["x1", "x2"]),
}


@pytest.mark.parametrize("block", [2, 1024])
@pytest.mark.parametrize("case", sorted(FIRST_POINT_FAILS))
def test_failure_at_the_first_point_builds_no_frame(case, block, monkeypatch):
    # the prefix before a failure at row 0 is the empty block, built like
    # any other: frame_block on no points is []
    monkeypatch.setattr(slantmap.maps, "FRAME_BLOCK", block)
    spec = FIRST_POINT_FAILS[case]
    points = [[-0.5, 0.2], [0.5, 0.1], [0.3, -0.4]]
    with pytest.raises(Exception) as single:
        point_frame(spec, points[0])
    built = []
    with pytest.raises(type(single.value)) as failure:
        built.extend(Sample(spec, points).stacks())
    assert built == []
    assert str(failure.value) == str(single.value)
    assert str(single.value).count(str(points[0])) == 1
    assert slantmap.maps.frame_block(spec, np.empty((0, 2))) == []


def test_sff_affine_map_vanishes():
    affine = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["x1 + 2*x2 - 1", "x2"])
    gen = np.random.default_rng(22)
    for _ in range(4):
        p = gen.uniform(-1, 1, 2)
        X, Y = gen.standard_normal(2), gen.standard_normal(2)
        assert np.abs(second_fundamental_form(affine, p, X, Y)).max() == 0.0


def test_sff_parabola_analytic():
    spec = parabola_map()
    value = second_fundamental_form(spec, [0.0], [1.0], [1.0])
    np.testing.assert_allclose(value, [0.0, 2.0], atol=1e-14)


def test_sff_example4_horizontal_zero(example4):
    frame = point_frame(example4, np.array([0.2, -0.4, 0.6, 0.1]))
    h = frame.split.horizontal.columns
    for a in range(2):
        for b in range(2):
            assert np.abs(frame.sff_value(h[:, a], h[:, b])).max() <= 1e-15


@pytest.mark.parametrize("catalog_id", ["curved_target", "warped_fiber",
                                        "kahler_twist"])
def test_sff_matches_finite_difference_oracle(catalog_id, sample_box):
    spec = load_catalog(catalog_id)
    gen = np.random.default_rng(23)
    points = sample_box(spec.box, 5, 33)
    for p in points:
        frame = point_frame(spec, p)
        for _ in range(3):
            X = gen.standard_normal(spec.source.dim)
            Y = gen.standard_normal(spec.source.dim)
            exact = frame.sff_value(X, Y)
            approx = fd_sff(spec, p, X, Y)
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(exact - approx).max() <= 1e-6 * scale


def test_sff_symmetry_and_tensoriality(sample_box):
    spec = load_catalog("warped_fiber")
    gen = np.random.default_rng(24)
    for p in sample_box(spec.box, 5, 34):
        frame = point_frame(spec, p)
        for _ in range(4):
            X = gen.standard_normal(3)
            Y = gen.standard_normal(3)
            a = float(gen.uniform(-2, 2))
            sym = frame.sff_value(X, Y) - frame.sff_value(Y, X)
            assert np.abs(sym).max() <= 1e-9
            scaled = frame.sff_value(a * X, Y) - a * frame.sff_value(X, Y)
            assert np.abs(scaled).max() <= 1e-9


def test_tension_affine_zero():
    affine = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["x1 - x2", "x2"])
    assert np.abs(tension_field(affine, [0.1, 0.2])).max() == 0.0


def test_tension_parabola():
    np.testing.assert_allclose(tension_field(parabola_map(), [0.0]),
                               [0.0, 2.0], atol=1e-14)


def test_tension_example4_harmonic(example4, sample_box):
    for p in sample_box(example4.box, 6, 35):
        assert np.abs(tension_field(example4, p)).max() <= 1e-14


def test_tension_splits_into_fiber_and_horizontal_trace(sample_box):
    spec = load_catalog("warped_fiber")
    for p in sample_box(spec.box, 5, 36):
        frame = point_frame(spec, p)
        tau = frame.tension
        kernel = frame.split.kernel.columns
        horizontal = frame.split.horizontal.columns
        parts = np.zeros_like(tau)
        for basis in (kernel, horizontal):
            for a in range(basis.shape[1]):
                parts = parts + frame.sff_value(basis[:, a], basis[:, a])
        np.testing.assert_allclose(tau, parts, atol=1e-10)


# S_V for the unit normal V = N[:, v] is the normal block of horizontal_sff:
# S[a, b] = g2(V, sff(h_a, h_b)) = horizontal_sff[a, r + v, b]

def test_s_v_operator_example4_zero(example4):
    frame = point_frame(example4, np.zeros(4))
    r = frame.rank
    np.testing.assert_allclose(frame.horizontal_sff[:, r, :r], 0.0, atol=1e-14)


def test_s_v_operator_curved_target_matches_gram_oracle(sample_box):
    spec = load_catalog("curved_target")
    for p in sample_box(spec.box, 4, 37):
        frame = point_frame(spec, p)
        V = frame.split.range_perp.columns[:, 0]
        S = frame.horizontal_sff[:, frame.rank, :frame.rank]
        # oracle: assemble from raw sff values
        h = frame.split.horizontal.columns
        expected = np.array([
            [frame.g_target.inner(V, frame.sff_value(h[:, a], h[:, b]))
             for b in range(frame.rank)] for a in range(frame.rank)])
        np.testing.assert_allclose(S, expected, atol=1e-12)
        assert np.abs(S - S.T).max() <= 1e-9
        assert np.abs(S).max() > 0.1  # substantive: curvature shows up


def test_s_v_pairing_identity(sample_box):
    # g2(S_V F_*X, F_*Y) == g2(V, sff(X, Y)) on random horizontal pairs
    spec = load_catalog("curved_target")
    gen = np.random.default_rng(25)
    for p in sample_box(spec.box, 4, 38):
        frame = point_frame(spec, p)
        h = frame.split.horizontal.columns
        V = frame.split.range_perp.columns[:, 1]
        S = frame.horizontal_sff[:, frame.rank + 1, :frame.rank]
        for _ in range(4):
            a = gen.standard_normal(frame.rank)
            b = gen.standard_normal(frame.rank)
            X, Y = h @ a, h @ b
            # S acts on range coordinates in the pushed-forward frame
            lhs = a @ S @ b
            rhs = frame.g_target.inner(V, frame.sff_value(X, Y))
            assert abs(lhs - rhs) <= 1e-8


def fiber_mean_curvature(spec, p):
    """fiber_trace at p in chart coordinates: B2 times its components."""
    frame = point_frame(spec, p)
    return frame.target_basis @ fiber_trace(frame)


def test_fiber_mean_curvature_example4(example4):
    np.testing.assert_allclose(fiber_mean_curvature(example4, np.zeros(4)), 0.0,
                               atol=1e-14)


def test_fiber_mean_curvature_compose_slant_minimal(sample_box):
    spec = load_catalog("compose_slant(alpha=0.9)")
    for p in sample_box(spec.box, 5, 39):
        assert np.abs(fiber_mean_curvature(spec, p)).max() <= 1e-12


def test_fiber_mean_curvature_warped_fiber_pinned(sample_box):
    # the sheared warp makes the fiber curvature the first coordinate vector
    spec = load_catalog("warped_fiber")
    for p in sample_box(spec.box, 5, 40):
        np.testing.assert_allclose(fiber_mean_curvature(spec, p),
                                   [1.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_fiber_mean_curvature_immersion_errors():
    spec = load_catalog("anti_invariant")
    with pytest.raises(MapDefinitionError, match="immersion"):
        fiber_trace(point_frame(spec, np.zeros(2)))


def test_map_point_evaluates_components(example4):
    p = np.array([0.5, 1.0, 2.0, -0.3])
    image = map_point(example4, p)
    np.testing.assert_allclose(
        image, [0.5, 3 / np.sqrt(3), 3 / np.sqrt(6), 0.0], atol=1e-14)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:  # adapted_frame on an anti-invariant map
        return str(exc)


def test_kept_wrappers_return_their_frame_members(sample_box):
    # the (spec, p, ...) functions the benchmark traces by name stay as
    # wrappers; each must give exactly what its PointFrame member gives
    for catalog_id in catalog_ids():
        spec = load_catalog(catalog_id)
        for p in sample_box(spec.box, 3, 42):
            frame = point_frame(spec, p)
            h = frame.split.horizontal.columns
            X, Y = h[:, 0], h @ np.arange(1.0, frame.rank + 1)
            pairs = [
                (map_point(spec, p), frame.image),
                (differential(spec, p), frame.jacobian),
                (second_fundamental_form(spec, p, X, Y), frame.sff_value(X, Y)),
                (tension_field(spec, p), frame.tension),
                (q_operator(spec, p), frame.q),
                (q_matrix(frame), frame.q),
                (slant_angle(spec, p, Y), frame.slant_angle(Y)),
                (_outcome(lambda: adapted_frame(spec, p)),
                 _outcome(frame.adapted_frame)),
            ]
            for theta in (None, 0.3):
                ops = point_operators(spec, p, theta=theta)
                members = frame.operators(theta)
                pairs += [(getattr(ops, f), getattr(members, f))
                          for f in vars(members)]
            for wrapped, member in pairs:
                assert type(wrapped) is type(member), catalog_id
                assert np.array_equal(wrapped, member), catalog_id


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


WARPED_POINT = [0.1, 0.2, 0.3]


def test_one_build_serves_the_pointwise_calls_at_a_point(monkeypatch):
    spec = load_catalog("warped_fiber")
    fresh = slantmap.maps.frame_block(spec, np.array([WARPED_POINT]))[0][1].row(0)
    # the catalog spec is shared, so an earlier test may have left its frame
    # at this point in the spec's slot
    monkeypatch.delitem(spec.__dict__, "_point_frame", raising=False)
    builds = _counted_builds(monkeypatch)
    p = WARPED_POINT
    frame = point_frame(spec, p)
    h = frame.split.horizontal.columns
    X, Y = h[:, 0], h[:, 1]
    ops = point_operators(spec, p, theta=0.3)
    pairs = [
        (slant_angle(spec, p, X), fresh.slant_angle(X)),
        (q_operator(spec, p), fresh.q),
        (tension_field(spec, p), fresh.tension),
        (second_fundamental_form(spec, p, X, Y), fresh.sff_value(X, Y)),
        (adapted_frame(spec, p), fresh.adapted_frame()),
    ]
    assert len(builds) == 1
    members = fresh.operators(0.3)
    pairs += [(getattr(ops, f), getattr(members, f)) for f in vars(members)]
    split, fresh_split = frame.split, fresh.split
    pairs += [(getattr(frame, f), getattr(fresh, f))
              for f in ("points", "images", "jacobian", "gamma_source",
                        "sff", "complex_structure", "nabla_j")]
    for name in ("kernel", "horizontal", "range", "range_perp"):
        basis, fresh_basis = getattr(split, name), getattr(fresh_split, name)
        pairs += [(basis.columns, fresh_basis.columns)]
        pairs += [(getattr(basis.metric, f), getattr(fresh_basis.metric, f))
                  for f in ("matrix", "cholesky", "frame", "inverse")]
    assert frame.rank == fresh.rank
    for slot, built in pairs:
        assert _same_bits(slot, built)
    # a new point, an equal but distinct MapSpec and a new rank_tol each
    # build again; so does the first point once the slot holds another
    point_frame(spec, [0.1, 0.2, 0.4])
    point_frame(spec, p)
    distinct = dataclasses.replace(spec)
    point_frame(distinct, p)
    point_frame(distinct, p, rank_tol=1e-6)
    assert len(builds) == 5


def test_each_spec_keeps_its_own_point_frame(monkeypatch):
    # two specs asked in turn at one point build once each: the slot is the
    # spec's, not one that the other spec's call replaces
    specs = [fresh_spec(load_catalog("warped_fiber")) for _ in range(2)]
    builds = _counted_builds(monkeypatch)
    frames = [point_frame(spec, WARPED_POINT) for spec in specs * 2]
    assert len(builds) == 2
    for first, again in zip(frames[:2], frames[2:]):
        assert _same_bits(first.jacobian, again.jacobian)


def test_a_dropped_spec_is_freed_with_its_point_frame():
    # what point_frame keeps lives on the spec, so nothing holds a spec that
    # its caller has dropped
    spec = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["x1 * x2", "x2"])
    point_frame(spec, [0.1, 0.2])
    dropped = weakref.ref(spec)
    del spec
    gc.collect()
    assert dropped() is None


def test_kept_frame_is_read_only_and_failures_are_not_kept(monkeypatch):
    spec = load_catalog("warped_fiber")
    frame = point_frame(spec, WARPED_POINT)
    with pytest.raises(ValueError, match="read-only"):
        point_frame(spec, WARPED_POINT).jacobian[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        point_frame(spec, WARPED_POINT).split.horizontal.columns[0, 0] = 1.0
    metric, target = frame.split.kernel.metric, frame.g_target
    for array in (metric.matrix, metric.cholesky, metric.frame, metric.inverse,
                  frame.sff, frame.point, target.matrix, target.cholesky,
                  target.frame, target.inverse, frame.source_basis,
                  frame.target_basis):
        assert not array.flags.writeable
    for name in ("frame", "inverse"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(point_frame(spec, WARPED_POINT).g_source, name)[0, 0] = 1.0
    q = q_operator(spec, WARPED_POINT)
    expected = q.copy()
    q[...] = 7.0
    assert _same_bits(q_operator(spec, WARPED_POINT), expected)
    builds = _counted_builds(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(ExpressionDomainError) as failure:
            point_frame(spec, [np.nan, 0.2, 0.3])
        messages.append(str(failure.value))
    assert messages[0] == messages[1]
    assert "at point [nan, 0.2, 0.3]" in messages[0]
    assert len(builds) == 2
    # the failures left the slot as it was: the good point needs no build
    assert _same_bits(point_frame(spec, WARPED_POINT).jacobian, frame.jacobian)
    assert len(builds) == 2


def test_kept_frame_over_constant_charts_is_read_only(monkeypatch):
    # example4's source and target charts are constant: the kept frame's
    # metrics, Christoffel symbols, J and nabla J are views of the one point
    # each chart keeps, read-only as the rest of the kept stack, and a
    # failure is not kept
    spec = load_catalog("example4")
    p = [0.1, -0.2, 0.3, 0.4]
    frame = point_frame(spec, p)
    arrays = [frame.gamma_source, frame.complex_structure, frame.nabla_j,
              frame.sff, frame.point]
    arrays += [getattr(metric, name) for metric in (frame.g_source, frame.g_target)
               for name in ("matrix", "cholesky", "frame", "inverse")]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    builds = _counted_builds(monkeypatch)
    for _ in range(2):
        with pytest.raises(ExpressionDomainError, match=r"at point \[nan, "):
            point_frame(spec, [np.nan, 0.2, 0.3, 0.4])
    assert len(builds) == 2
    assert _same_bits(point_frame(spec, p).g_target.inverse, frame.g_target.inverse)
    assert len(builds) == 2


def test_point_frame_shape_error_names_the_callers_shape():
    spec = load_catalog("warped_fiber")
    with pytest.raises(ValueError, match=r"^point has shape \(1,\), expected \(3,\)$"):
        point_frame(spec, [0.1])
    with pytest.raises(ValueError, match=r"^point has shape \(2, 3\), expected \(3,\)$"):
        point_frame(spec, [WARPED_POINT, WARPED_POINT])


def test_section_derivatives_directions_of_the_wrong_shape():
    # a direction vector, or directions with the wrong number of rows or of
    # points, is a located error at a point frame and at a stack
    spec = load_catalog("warped_fiber")
    frame = point_frame(spec, WARPED_POINT)
    (_, stack), = slantmap.maps.frame_block(
        spec, np.array([WARPED_POINT, [0.2, 0.1, -0.3]]))
    with pytest.raises(ValueError,
                       match=r"^directions have shape \(3,\), expected \(3, k\)$"):
        section_derivatives(frame, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError,
                       match=r"^directions have shape \(4, 2\), expected \(3, k\)$"):
        section_derivatives(frame, np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"^directions have shape \(3, 3, 1\), "
                                         r"expected \(3, k\) or \(2, 3, k\)$"):
        section_derivatives(stack, np.ones((3, 3, 1)))
    # the accepted shapes give one tensor per direction
    assert section_derivatives(frame, np.ones((3, 2))).q.shape == (2, 3, 3)
    assert section_derivatives(stack, np.ones((3, 2))).q.shape == (2, 2, 3, 3)
    assert section_derivatives(stack, np.ones((2, 3, 1))).q.shape == (2, 1, 3, 3)


@pytest.mark.parametrize("catalog_id", catalog_ids())
def test_point_frame_split_is_split_tangent_bit_for_bit(catalog_id):
    # the two producers of a TangentSplit: a frame's view of its B1 and B2,
    # and the one-point split of its Jacobian between its metrics
    spec = load_catalog(catalog_id)
    for p in sample_points(spec.box, 5, seed=11):
        frame = point_frame(spec, p)
        split = frame.split
        expected = split_tangent(frame.jacobian, frame.g_source, frame.g_target)
        assert split.rank == expected.rank == frame.rank
        for name in ("kernel", "horizontal", "range", "range_perp"):
            assert _same_bits(getattr(split, name).columns,
                              getattr(expected, name).columns), name


SLANT_ANGLE_ROUTES = {
    "wrapper": lambda spec, X: slant_angle(spec, WARPED_POINT, X),
    "member": lambda spec, X: point_frame(spec, WARPED_POINT).slant_angle(X),
}


@pytest.mark.parametrize("route", sorted(SLANT_ANGLE_ROUTES))
def test_slant_angle_direction_of_the_wrong_shape(route):
    spec = load_catalog("warped_fiber")
    with pytest.raises(ValueError,
                       match=r"^direction has shape \(2,\), expected \(3,\)$"):
        SLANT_ANGLE_ROUTES[route](spec, [1.0, 0.0])


@pytest.mark.parametrize("route", sorted(SLANT_ANGLE_ROUTES))
def test_slant_angle_kernel_direction_names_its_point(route):
    # F = (x1, x2/sqrt 2, x2/sqrt 2, 0) does not depend on x3
    spec = load_catalog("warped_fiber")
    with pytest.raises(ValueError) as failure:
        SLANT_ANGLE_ROUTES[route](spec, [0.0, 0.0, 1.0])
    assert str(failure.value) == ("direction lies in the kernel of the "
                                  f"differential at point {WARPED_POINT}")


def test_slant_angle_of_a_kernel_basis_vector_is_a_kernel_error():
    # example4's F_* takes its kernel basis vector k to 1.7e-16 rounding,
    # not to exactly 0, and the angle of that rounding is no slant angle,
    # whatever multiple of k is asked for
    spec = load_catalog("example4")
    p = [0.1, -0.2, 0.3, 0.4]
    frame = point_frame(spec, p)
    k = frame.source_basis[:, frame.rank]
    message = f"direction lies in the kernel of the differential at point {p}"
    for X in (k, 1e6 * k, -k + 1e-9 * frame.source_basis[:, 0]):
        for angle in (frame.slant_angle, lambda X: slant_angle(spec, p, X)):
            with pytest.raises(ValueError) as failure:
                angle(X)
            assert str(failure.value) == message
    # a horizontal part above KERNEL_TOL times the norm has its angle
    X = k + 1e-7 * frame.source_basis[:, 0]
    assert frame.slant_angle(X) == pytest.approx(math.acos(math.sqrt(2 / 3)),
                                                 abs=1e-8)


@pytest.mark.parametrize("route", sorted(SLANT_ANGLE_ROUTES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_slant_angle_of_a_direction_that_is_not_finite(route, bad):
    # no nan angle and no RuntimeWarning: an error that names the direction
    spec = load_catalog("warped_fiber")
    with pytest.raises(ValueError) as failure:
        SLANT_ANGLE_ROUTES[route](spec, [1.0, bad, 0.0])
    assert str(failure.value) == f"direction [1.0, {bad}, 0.0] is not finite"


@pytest.mark.parametrize("k", [-600, -520, 520, 600])
def test_slant_angle_of_a_direction_too_large_or_small_to_square(k):
    # X is scaled by a power of two, which rounds nothing, where its square
    # would overflow or lose digits: the angle of 2^k X is the angle of X,
    # bit for bit, with no RuntimeWarning (the pytest settings make one an
    # error), and a zero or kernel direction is still a kernel error
    frame = point_frame(load_catalog("example4"), np.zeros(4))
    h0, kernel = (frame.source_basis[:, a] for a in (0, frame.rank))
    assert frame.slant_angle(2.0 ** k * h0) == frame.slant_angle(h0)
    for X in (0.0 * h0, 2.0 ** k * kernel):
        with pytest.raises(ValueError, match="^direction lies in the kernel"):
            frame.slant_angle(X)


def _counted_broadcasts(monkeypatch) -> list:
    """The shapes of every np.broadcast_to call from here on."""
    calls = []
    original = np.broadcast_to

    def counted(array, shape, *args, **kwargs):
        calls.append(shape)
        return original(array, shape, *args, **kwargs)
    monkeypatch.setattr(np, "broadcast_to", counted)
    return calls


# the maps of perfbench's pointwise_api workload: a constant target
# (warped_fiber) or a constant source (kahler_twist, curved_target)
POINTWISE_MAPS = ("warped_fiber", "kahler_twist", "curved_target")


@pytest.mark.parametrize("catalog_id", POINTWISE_MAPS)
def test_a_one_point_frame_broadcasts_nothing(catalog_id, monkeypatch):
    # a constant chart hands a one-point build the arrays of the point it
    # keeps, which are read-only already; a fresh spec keeps nothing yet, so
    # its build also evaluates that point
    spec = fresh_spec(load_catalog(catalog_id))
    p = sample_points(spec.box, 1, seed=5)[0]
    calls = _counted_broadcasts(monkeypatch)
    frame = point_frame(spec, p)
    assert calls == []
    constant = spec.source if spec.source.constant else spec.target
    assert constant.__dict__["_kept"] is not None
    # a block of three repeats the kept point as broadcast views
    slantmap.maps.frame_block(spec, np.array([p, p, p]))
    assert calls and all(shape[0] == 3 for shape in calls)
    assert frame.rank == 2


@pytest.mark.parametrize("spec", [load_catalog("warped_fiber"), parabola_map()],
                         ids=["with_J", "without_J"])
def test_a_row_is_every_field_at_its_point(spec):
    points = sample_points(spec.box, 3, seed=8)
    (_, stack), = slantmap.maps.frame_block(spec, points)
    for i in range(len(stack)):
        row = stack.row(i)
        assert type(row) is slantmap.maps.PointFrame
        assert set(vars(row)) == set(stack.FIELDS)
        for name in stack.FIELDS:
            field, value = getattr(stack, name), getattr(row, name)
            if name == "rank" or field is None:
                assert value is field, name
            elif isinstance(field, InnerProduct):
                assert set(vars(value)) == set(vars(field)), name
                for part in vars(field):
                    assert _same_bits(getattr(value, part),
                                      getattr(field, part)[i]), (name, part)
            else:
                assert _same_bits(value, field[i]), name
    assert (stack.complex_structure is None) == (spec.target.complex_structure is None)


def test_every_exported_name_resolves():
    assert len(set(slantmap.__all__)) == len(slantmap.__all__)
    for name in slantmap.__all__:
        assert hasattr(slantmap, name), name


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_a_rank_tolerance_that_is_not_positive_and_finite_fails_every_route(
        example4, tol):
    # example4 has rank 2; such a tolerance read ranks 4 (-1), 3 (0) and 0
    # (NaN, inf) from its differential and reported them as its geometry
    message = f"rank tolerance must be a positive finite number, got {tol!r}"
    point = [0.1, 0.2, 0.3, 0.4]
    with pytest.raises(ValueError, match=f"^{message}$"):
        point_frame(example4, point, rank_tol=tol)
    euclidean = InnerProduct(np.eye(4))
    with pytest.raises(ValueError, match=f"^{message}$"):
        split_tangent(differential(example4, point), euclidean, euclidean, tol)
    with pytest.raises(ValueError, match=f"^{message}$"):
        is_riemannian_map(Sample(example4, [point], tol))
    # AnalysisSettings rejects it; set after the check, the analysis does too
    with pytest.raises(ValueError, match="^rank_tol: must be a positive finite number$"):
        AnalysisSettings(points=5, rank_tol=tol)
    settings = AnalysisSettings(points=5)
    settings.rank_tol = tol
    report = run_analysis(LoadedMap(example4, settings, "catalog:example4"))
    errors = {c.name: c.reason for c in report.checks if c.status == "error"}
    assert "riemannian_map" in errors
    assert set(errors.values()) == {f"ValueError: {message}"}


def test_map_spec_create_rejects_foreign_coordinates_and_bad_boxes():
    plane = ChartManifold.euclidean(2)
    with pytest.raises(MapDefinitionError, match="use the source coordinates"):
        MapSpec.create(plane, plane, [parse_expression("x1", 3), "x2"])
    for box in ([(-1, 1)], [(-1, 1), (2, 2)], [(0, 1), (1, -1)]):
        with pytest.raises(MapDefinitionError, match="a range per source coordinate"):
            MapSpec.create(plane, plane, ["x1", "x2"], box)


def test_rank_zero_has_no_adapted_frame_and_no_j_without_j():
    # a constant map has no horizontal space to adapt a frame to; a target
    # chart without J has no blocks of J
    plane = ChartManifold.euclidean(2)
    disk = ChartManifold.euclidean(2, [["0", "-1"], ["1", "0"]])
    constant = MapSpec.create(plane, disk, ["1", "2"])
    frame = point_frame(constant, [0.1, 0.2])
    assert frame.rank == 0
    with pytest.raises(MapDefinitionError, match="rank zero"):
        frame.adapted_frames()
    flat = MapSpec.create(plane, plane, ["x1", "x2"])
    with pytest.raises(ChartError, match="target chart has no complex structure"):
        point_frame(flat, [0.1, 0.2]).j_blocks
