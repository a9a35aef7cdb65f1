import numpy as np
import pytest

import slantmap
from slantmap.catalog import catalog_ids, load_catalog
from slantmap.charts import ChartManifold
from slantmap.maps import (MapDefinitionError, MapSpec, Sample,
                           check_sff_range_perp, differential,
                           is_riemannian_map, map_point, point_frame,
                           second_fundamental_form, tension_field)
from slantmap.slant import (adapted_frame, point_operators, q_matrix,
                            q_operator, slant_angle)
from oracles import fd_sff

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


def test_riemannian_example4(example4, sample_box):
    points = sample_box(example4.box, 12, 31)
    result = is_riemannian_map(Sample(example4, points))
    assert result.passed
    assert result.residual <= 1e-12
    assert result.detail == {"rank": 2, "rank_constant": True}


def test_sample_frames_are_built_once_and_bound_to_the_map(example4,
                                                           sample_box):
    points = sample_box(example4.box, 5, 32)
    sample = Sample(example4, points)
    assert is_riemannian_map(sample) == is_riemannian_map(
        Sample(example4, points))
    first = list(sample.frames())
    assert check_sff_range_perp(sample).passed
    assert all(a is b for a, b in zip(first, sample.frames()))
    assert len(first) == len(sample) == 5


def test_riemannian_rejects_dilation():
    dilation = MapSpec.create(EUCLIDEAN_2, EUCLIDEAN_2, ["2*x1", "2*x2"])
    result = is_riemannian_map(
        Sample(dilation, [np.zeros(2), np.ones(2) * 0.5]))
    assert result.status == "fail"
    assert result.residual == pytest.approx(3.0, abs=1e-12)


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


def test_s_v_operator_example4_zero(example4):
    frame = point_frame(example4, np.zeros(4))
    V = frame.split.range_perp.columns[:, 0]
    np.testing.assert_allclose(frame.s_v(V), 0.0, atol=1e-14)


def test_s_v_operator_zero_vector(example4):
    np.testing.assert_array_equal(
        point_frame(example4, np.zeros(4)).s_v(np.zeros(4)), np.zeros((2, 2)))


def test_s_v_operator_projects_small_range_component():
    spec = load_catalog("curved_target")
    p = np.array([0.2, -0.4])
    frame = point_frame(spec, p)
    V = frame.split.range_perp.columns[:, 0]
    clean = frame.s_v(V)
    stray = V + 1e-11 * frame.split.range.columns[:, 0]
    repaired = frame.s_v(stray)
    np.testing.assert_allclose(repaired, clean, atol=1e-9)


def test_s_v_operator_rejects_range_vector(example4):
    frame = point_frame(example4, np.zeros(4))
    inside = frame.split.range.columns[:, 0]
    with pytest.raises(ValueError, match="range component"):
        frame.s_v(inside)


def test_s_v_operator_curved_target_matches_gram_oracle(sample_box):
    spec = load_catalog("curved_target")
    for p in sample_box(spec.box, 4, 37):
        frame = point_frame(spec, p)
        V = frame.split.range_perp.columns[:, 0]
        S = frame.s_v(V)
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
        S = frame.s_v(V)
        for _ in range(4):
            a = gen.standard_normal(frame.rank)
            b = gen.standard_normal(frame.rank)
            X, Y = h @ a, h @ b
            # S acts on range coordinates in the pushed-forward frame
            lhs = a @ S @ b
            rhs = frame.g_target.inner(V, frame.sff_value(X, Y))
            assert abs(lhs - rhs) <= 1e-8


def test_fiber_mean_curvature_example4(example4):
    np.testing.assert_allclose(
        point_frame(example4, np.zeros(4)).fiber_mean_curvature, 0.0,
        atol=1e-14)


def test_fiber_mean_curvature_compose_slant_minimal(sample_box):
    spec = load_catalog("compose_slant(alpha=0.9)")
    for p in sample_box(spec.box, 5, 39):
        assert np.abs(point_frame(spec, p).fiber_mean_curvature).max() <= 1e-12


def test_fiber_mean_curvature_warped_fiber_pinned(sample_box):
    # the sheared warp makes the fiber curvature the first coordinate vector
    spec = load_catalog("warped_fiber")
    for p in sample_box(spec.box, 5, 40):
        np.testing.assert_allclose(point_frame(spec, p).fiber_mean_curvature,
                                   [1.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_fiber_mean_curvature_immersion_errors():
    spec = load_catalog("anti_invariant")
    with pytest.raises(MapDefinitionError, match="immersion"):
        point_frame(spec, np.zeros(2)).fiber_mean_curvature


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


def test_every_exported_name_resolves():
    assert len(set(slantmap.__all__)) == len(slantmap.__all__)
    for name in slantmap.__all__:
        assert hasattr(slantmap, name), name
