import math

import numpy as np
import pytest

from oracles import fd_pullback_derivative, fd_source_derivative
from slantmap.catalog import load_catalog
from slantmap.charts import ChartManifold
from slantmap.maps import MapSpec, point_frame
from slantmap.slant import (adapted_frame, bc_decompose, check_adapted_frame,
                            check_harmonic_minimal_equivalence,
                            check_lambda_mu_consistency,
                            check_omega_defect_identity, check_phwc,
                            check_pseudo_homothetic, check_sff_q_scaling,
                            check_totally_geodesic, classify_slant,
                            omega_defect_algebraic, omega_defect_from_frame,
                            omega_parallel_defect, phi_omega_decompose,
                            phi_parallel_defect, point_operators, q_apply,
                            q_matrix, q_operator, section_derivatives,
                            slant_angle)

EX4_THETA = math.acos(math.sqrt(2.0 / 3.0))


def points_for(spec, count, seed):
    gen = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in spec.box])
    highs = np.array([hi for _, hi in spec.box])
    return [lows + gen.random(len(spec.box)) * (highs - lows)
            for _ in range(count)]


# ---------------------------------------------------------------------------
# phi / omega / B / C decompositions

def test_phi_omega_example4_split(example4):
    p = np.array([0.1, -0.2, 0.3, 0.4])
    phi, omega = phi_omega_decompose(example4, p, [1.0, 0.0, 0.0, 0.0])
    assert phi @ phi == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert omega @ omega == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_phi_omega_invariant_map_no_normal_part():
    spec = load_catalog("invariant")
    gen = np.random.default_rng(41)
    for _ in range(4):
        p = gen.uniform(-1, 1, 3)
        X = gen.standard_normal(3)
        X[2] = 0.0  # horizontal: kernel is the third coordinate
        phi, omega = phi_omega_decompose(spec, p, X)
        assert np.abs(omega).max() <= 1e-14
        np.testing.assert_allclose(phi, [-X[1], X[0], 0, 0], atol=1e-14)


def test_phi_omega_anti_invariant_map_no_tangential_part():
    spec = load_catalog("anti_invariant")
    gen = np.random.default_rng(42)
    for _ in range(4):
        X = gen.standard_normal(2)
        phi, omega = phi_omega_decompose(spec, gen.uniform(-1, 1, 2), X)
        assert np.abs(phi).max() <= 1e-14
        assert omega @ omega == pytest.approx(X @ X, abs=1e-12)


def test_bc_invariant_map_b_vanishes():
    # range and its complement are both preserved, so B = 0; oracle: direct
    # projection of J e3', J e4' onto span{e1', e2'}
    spec = load_catalog("invariant")
    frame = point_frame(spec, np.zeros(3))
    for v_idx in range(2):
        V = frame.split.range_perp.columns[:, v_idx]
        b, c = bc_decompose(spec, np.zeros(3), V)
        assert np.abs(b).max() <= 1e-14
        assert c @ c == pytest.approx(V @ V, abs=1e-12)


def test_bc_anti_invariant_direct_projection():
    spec = load_catalog("anti_invariant")
    p = np.zeros(2)
    # V = J e1' = e2': B V = -e1'
    b, c = bc_decompose(spec, p, [0.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(b, [-1.0, 0.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(c, 0.0, atol=1e-14)


def test_bc_zero_vector(example4):
    b, c = bc_decompose(example4, np.zeros(4), np.zeros(4))
    assert not b.any() and not c.any()


def test_point_operators_induced_structures(example4):
    p = np.array([0.2, 0.4, -0.1, 0.3])
    ops = point_operators(example4, p, theta=EX4_THETA)
    np.testing.assert_allclose(ops.jtilde @ ops.jtilde, -np.eye(2), atol=1e-12)
    np.testing.assert_allclose(ops.jhat @ ops.jhat, -np.eye(2), atol=1e-12)
    anti = load_catalog("anti_invariant")
    with pytest.raises(ValueError, match="undefined"):
        point_operators(anti, np.zeros(2), theta=math.pi / 2)


def test_point_operator_block_identities(sample_box):
    for catalog_id in ("example4", "kahler_twist", "curved_target"):
        spec = load_catalog(catalog_id)
        for p in points_for(spec, 4, 43):
            ops = point_operators(spec, p)
            r = ops.phi.shape[0]
            k = ops.c.shape[0]
            assert np.abs(ops.phi + ops.phi.T).max() <= 1e-10
            assert np.abs(ops.c + ops.c.T).max() <= 1e-10
            assert np.abs(ops.b + ops.omega.T).max() <= 1e-10
            assert np.abs(ops.phi @ ops.phi + ops.b @ ops.omega
                          + np.eye(r)).max() <= 1e-10
            assert np.abs(ops.omega @ ops.phi + ops.c @ ops.omega).max() <= 1e-10
            assert np.abs(ops.c @ ops.c + ops.omega @ ops.b
                          + np.eye(k)).max() <= 1e-10


# ---------------------------------------------------------------------------
# slant angle and classification

def test_slant_angle_example4_any_direction(example4):
    gen = np.random.default_rng(44)
    for _ in range(6):
        p = gen.uniform(-1, 1, 4)
        frame = point_frame(example4, p)
        coeff = gen.standard_normal(2)
        X = frame.split.horizontal.columns @ coeff
        assert slant_angle(example4, p, X) == pytest.approx(EX4_THETA,
                                                            abs=1e-12)


def test_slant_angle_invariant_zero():
    spec = load_catalog("invariant")
    assert slant_angle(spec, np.zeros(3), [1.0, 0.0, 0.0]) <= 1e-12


def test_slant_angle_slant_plane_alpha():
    spec = load_catalog("slant_plane(alpha=0.7853981633974483)")
    # oracle: explicit projection of J F_* e2 onto the image plane
    assert slant_angle(spec, np.zeros(2), [0.0, 1.0]) == pytest.approx(
        math.pi / 4, abs=1e-12)


def test_slant_angle_rejects_kernel_direction(example4):
    with pytest.raises(ValueError, match="kernel"):
        slant_angle(example4, np.zeros(4), [0.0, 1.0, -1.0, 0.0])


def test_classify_example4(example4):
    report = classify_slant(example4, points_for(example4, 10, 45))
    assert report.classification == "proper_slant"
    assert report.mean_angle == pytest.approx(EX4_THETA, abs=1e-12)
    assert report.max_deviation <= 1e-12
    assert report.lambda_estimate == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert report.mu_estimate == pytest.approx(-2.0 / 3.0, abs=1e-12)


def test_classify_invariant_and_anti_invariant():
    invariant = load_catalog("invariant")
    report = classify_slant(invariant, points_for(invariant, 6, 46))
    assert report.classification == "invariant"
    assert report.mean_angle <= 1e-12
    anti = load_catalog("anti_invariant")
    report = classify_slant(anti, points_for(anti, 6, 47))
    assert report.classification == "anti_invariant"
    assert abs(report.mean_angle - math.pi / 2) <= 1e-12


def test_classify_nonslant_with_witness():
    spec = load_catalog("nonslant")
    report = classify_slant(spec, points_for(spec, 10, 48))
    assert report.classification == "not_slant"
    assert report.max_deviation > 1e-3
    assert report.witness is not None
    # the witness records the sampled angle farthest from the mean
    assert abs(report.witness["angle"] - report.mean_angle) == pytest.approx(
        report.max_deviation, abs=1e-15)


def test_classify_not_riemannian():
    from slantmap.charts import ChartManifold
    from slantmap.maps import MapSpec
    dilation = MapSpec.create(
        ChartManifold.euclidean(2),
        ChartManifold.euclidean(2, [["0", "-1"], ["1", "0"]]),
        ["2*x1", "2*x2"])
    report = classify_slant(dilation, points_for(dilation, 4, 49))
    assert report.classification == "not_riemannian"


def test_classification_stable_under_reseeding():
    for catalog_id in ("example4", "compose_slant", "invariant"):
        spec = load_catalog(catalog_id)
        points = points_for(spec, 8, 50)
        first = classify_slant(spec, points, seed=1)
        second = classify_slant(spec, points, seed=99)
        assert first.classification == second.classification
        assert abs(first.mean_angle - second.mean_angle) <= first.angle_tol


# ---------------------------------------------------------------------------
# Q operator

def test_q_example4_squares_to_minus_two_thirds(example4):
    q = q_operator(example4, np.array([0.3, 0.1, -0.2, 0.5]))
    np.testing.assert_allclose(q @ q, -(2.0 / 3.0) * np.eye(2), atol=1e-12)
    assert np.abs(q + q.T).max() <= 1e-12


def test_q_invariant_squares_to_minus_identity():
    spec = load_catalog("invariant")
    q = q_operator(spec, np.zeros(3))
    np.testing.assert_allclose(q @ q, -np.eye(2), atol=1e-12)


def test_q_anti_invariant_vanishes():
    spec = load_catalog("anti_invariant")
    assert np.abs(q_operator(spec, np.zeros(2))).max() <= 1e-14


def test_q_skew_on_catalog(sample_box):
    for catalog_id in ("example4", "kahler_twist", "compose_slant",
                       "warped_fiber"):
        spec = load_catalog(catalog_id)
        for p in points_for(spec, 3, 51):
            q = q_matrix(point_frame(spec, p))
            assert np.abs(q + q.T).max() <= 1e-10


# ---------------------------------------------------------------------------
# adapted frames

def test_adapted_frame_example4(example4):
    gen = np.random.default_rng(52)
    for _ in range(5):
        p = gen.uniform(-1, 1, 4)
        cols = adapted_frame(example4, p)
        gram = cols.T @ cols  # Euclidean source metric
        assert np.abs(gram - np.eye(2)).max() <= 1e-10


def test_adapted_frame_invariant_uses_q_partner():
    spec = load_catalog("invariant")
    cols = adapted_frame(spec, np.zeros(3))
    frame = point_frame(spec, np.zeros(3))
    q = q_matrix(frame)
    assert cols.shape == (3, 2)
    # second vector is Q of the first (sec 0 = 1)
    h = frame.split.horizontal.columns
    first_coeff = h.T @ cols[:, 0]
    np.testing.assert_allclose(h.T @ cols[:, 1], q @ first_coeff, atol=1e-12)


def test_adapted_frame_anti_invariant_errors():
    spec = load_catalog("anti_invariant")
    with pytest.raises(ValueError, match="adapted frame"):
        adapted_frame(spec, np.zeros(2))


def test_adapted_frame_compose_slant(sample_box):
    spec = load_catalog("compose_slant(alpha=1.2)")
    for p in points_for(spec, 5, 53):
        cols = adapted_frame(spec, p)
        gram = cols.T @ cols
        assert np.abs(gram - np.eye(2)).max() <= 1e-10


# ---------------------------------------------------------------------------
# parallelism defects

def _rank4_into_c3():
    """Rank-4 map R^4 -> C^3 whose slant angle depends on the direction; the
    target J is the standard one rotated in the (y1, y3) plane by y5, so its
    gradient enters the derivatives too."""
    c, s = "cos(x5)", "sin(x5)"
    J = [["0", f"-{c}", "0", s, "0", "0"],
         [c, "0", s, "0", "0", "0"],
         ["0", f"-{s}", "0", f"-{c}", "0", "0"],
         [f"-{s}", "0", c, "0", "0", "0"],
         ["0", "0", "0", "0", "0", "-1"],
         ["0", "0", "0", "0", "1", "0"]]
    return MapSpec.create(ChartManifold.euclidean(4),
                          ChartManifold.euclidean(6, J),
                          ["x1", "x2", "cos(x3)", "x4", "sin(x3) + x1*x2/2",
                           "x3*x4/3"], name="rank4_into_c3")


@pytest.mark.parametrize("map_name", ["warped_fiber", "kahler_twist",
                                      "curved_target", "nonslant",
                                      "rank4_into_c3"])
def test_section_derivatives_match_finite_difference_oracle(map_name):
    spec = (_rank4_into_c3() if map_name == "rank4_into_c3"
            else load_catalog(map_name))
    for p in points_for(spec, 2, 57):
        frame = point_frame(spec, p)
        h = frame.split.horizontal.columns
        for a in range(frame.rank):
            X = h[:, a]
            exact = section_derivatives(frame, X)
            for b in range(frame.rank):
                Y = h[:, b]

                def phi(q):
                    return phi_omega_decompose(spec, q, Y)[0]

                def omega(q):
                    return phi_omega_decompose(spec, q, Y)[1]

                def qy(q):
                    return q_apply(point_frame(spec, q), Y)

                for derivative, oracle in (
                        (exact.phi @ Y, fd_pullback_derivative(frame, X, phi)),
                        (exact.omega @ Y, fd_pullback_derivative(frame, X, omega)),
                        (exact.q @ Y, fd_source_derivative(frame, X, qy))):
                    np.testing.assert_allclose(derivative, oracle, rtol=0,
                                               atol=1e-8)


def test_rank4_into_c3_is_direction_dependent():
    spec = _rank4_into_c3()
    p = points_for(spec, 1, 58)[0]
    frame = point_frame(spec, p)
    assert frame.rank == 4
    h = frame.split.horizontal.columns
    angles = [slant_angle(spec, p, h[:, a]) for a in range(4)]
    assert max(angles) - min(angles) > 0.1


def test_omega_defect_zero_on_flat_catalog(example4):
    frame = point_frame(example4, np.zeros(4))
    h = frame.split.horizontal.columns
    defect = omega_parallel_defect(example4, np.zeros(4), h[:, 0], h[:, 1])
    assert np.abs(defect).max() <= 1e-12


def test_omega_defect_compose_slant_zero(sample_box):
    spec = load_catalog("compose_slant(alpha=0.6)")
    for p in points_for(spec, 3, 54):
        frame = point_frame(spec, p)
        h = frame.split.horizontal.columns
        for a in range(2):
            for b in range(2):
                defect = omega_defect_from_frame(frame, h[:, a], h[:, b])
                assert np.abs(defect).max() <= 1e-10


def test_omega_defect_kahler_twist_nonzero_and_matches_identity():
    # the warped-block target twists the normal bundle: omega is not parallel,
    # and the curve-based defect must still equal the closed form because the
    # target structure is parallel
    spec = load_catalog("kahler_twist")
    for p in points_for(spec, 4, 55):
        frame = point_frame(spec, p)
        h = frame.split.horizontal.columns
        largest = 0.0
        for a in range(2):
            for b in range(2):
                measured = omega_defect_from_frame(frame, h[:, a], h[:, b])
                algebraic = omega_defect_algebraic(frame, h[:, a], h[:, b])
                assert np.abs(measured - algebraic).max() <= 1e-8
                largest = max(largest, np.abs(measured).max())
        assert largest > 0.05


def test_omega_defect_identity_on_curved_target():
    spec = load_catalog("curved_target")
    result = check_omega_defect_identity(spec, points_for(spec, 6, 56))
    assert result.passed
    assert result.residual <= 1e-7


def test_phi_defect_zero_on_linear_catalog(example4):
    frame = point_frame(example4, np.zeros(4))
    h = frame.split.horizontal.columns
    defect = phi_parallel_defect(example4, np.zeros(4), h[:, 0], h[:, 1])
    assert np.abs(defect).max() <= 1e-12
    invariant = load_catalog("invariant")
    fr2 = point_frame(invariant, np.zeros(3))
    h2 = fr2.split.horizontal.columns
    defect = phi_parallel_defect(invariant, np.zeros(3), h2[:, 0], h2[:, 1])
    assert np.abs(defect).max() <= 1e-12


@pytest.mark.parametrize("catalog_id", ["curved_target", "kahler_twist"])
def test_phi_defect_matches_finite_difference_route(catalog_id):
    # independent route: the defect equals F_*(nabla_X Y') - phi F_*(nabla_X Y)
    # with Y' = QY extended through the curve-based Q section
    spec = load_catalog(catalog_id)
    h_step = 1e-5
    for p in points_for(spec, 3, 57):
        frame = point_frame(spec, p)
        h = frame.split.horizontal.columns
        for a in range(2):
            for b in range(2):
                X, Y = h[:, a], h[:, b]
                defect = phi_parallel_defect(spec, p, X, Y)
                from slantmap.slant import q_apply
                def qy_section(q):
                    return q_apply(point_frame(spec, q), Y)
                dq = (qy_section(p + h_step * X) - qy_section(p - h_step * X)
                      ) / (2 * h_step)
                nabla_qy = dq + frame.covariant_source(X, q_apply(frame, Y))
                phi_nab, _ = phi_omega_decompose(
                    spec, p, frame.covariant_source(X, Y))
                oracle = frame.pushforward(nabla_qy) - phi_nab
                assert np.abs(defect - oracle).max() <= 1e-8


def test_omega_defect_identity_with_both_connections_curved():
    # sheared source metric AND warped Kaehler target: every Christoffel term
    # of both routes fires, the defect is far from zero, and the curve-based
    # and jet-exact computations must still agree
    src_metric = [["1 + exp(2*x1)*pow(x2,2)", "0", "exp(2*x1)*x2"],
                  ["0", "1", "0"],
                  ["exp(2*x1)*x2", "0", "exp(2*x1)"]]
    tgt_metric = [["exp(2*x2)", "0", "0", "0"], ["0", "exp(2*x2)", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    j4 = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
          ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]
    from slantmap.charts import ChartManifold
    from slantmap.maps import MapSpec
    beta = 0.6
    s, c = math.sin(beta), math.cos(beta)
    spec = MapSpec.create(
        ChartManifold.from_strings(3, src_metric),
        ChartManifold.from_strings(4, tgt_metric, j4),
        [f"x2*{s!r}", "0", "x1", f"x2*{c!r}"], name="double_warp")
    points = points_for(spec, 4, 79)
    report = classify_slant(spec, points, dirs_per_point=4)
    assert report.classification == "proper_slant"
    assert report.mean_angle == pytest.approx(beta, abs=1e-10)
    assert report.omega_defect > 0.1  # substantive, not a trivial zero
    result = check_omega_defect_identity(spec, points)
    assert result.passed
    assert result.residual <= 1e-9


def test_phi_defect_range_expansion_identity():
    # on parallel-structure targets the phi defect equals
    # B(sff(X, Y)) + S_{omega F_*Y} F_*X; on kahler_twist both sides hold
    # nonzero ingredients that must cancel exactly
    from slantmap.slant import phi_defect_from_frame, tangential_part
    for catalog_id in ("example4", "compose_slant", "warped_fiber",
                       "kahler_twist"):
        spec = load_catalog(catalog_id)
        for p in points_for(spec, 3, 78):
            frame = point_frame(spec, p)
            h = frame.split.horizontal.columns
            pushed = frame.jacobian @ h
            J = frame.complex_structure
            for a in range(frame.rank):
                for b in range(frame.rank):
                    X, Y = h[:, a], h[:, b]
                    lhs = phi_defect_from_frame(frame, X, Y)
                    sff_xy = frame.sff_value(X, Y)
                    normal = sff_xy - tangential_part(frame, sff_xy)
                    b_part = tangential_part(frame, J @ normal)
                    _, omega_y = phi_omega_decompose(spec, p, Y)
                    shape = sum(
                        frame.g_target.inner(omega_y,
                                             frame.sff_value(X, h[:, c]))
                        * pushed[:, c] for c in range(frame.rank))
                    assert np.abs(lhs - (b_part + shape)).max() <= 1e-8


# ---------------------------------------------------------------------------
# theorem-level checks

def test_lambda_mu_consistency_on_slant_catalog():
    for catalog_id in ("example4", "invariant", "anti_invariant",
                       "compose_slant", "kahler_twist", "warped_fiber"):
        spec = load_catalog(catalog_id)
        report = classify_slant(spec, points_for(spec, 6, 58))
        result = check_lambda_mu_consistency(report)
        assert result.passed, (catalog_id, result.residual)


def test_lambda_extremes():
    invariant = load_catalog("invariant")
    report = classify_slant(invariant, points_for(invariant, 5, 59))
    assert report.lambda_estimate == pytest.approx(-1.0, abs=1e-12)
    anti = load_catalog("anti_invariant")
    report = classify_slant(anti, points_for(anti, 5, 60))
    assert report.lambda_estimate == pytest.approx(0.0, abs=1e-12)
    assert report.mu_estimate == pytest.approx(0.0, abs=1e-12)


def test_gram_identities_for_slant_maps():
    # tangential and normal parts scale with cos^2 and sin^2 of the angle
    for catalog_id, theta in (("example4", EX4_THETA),
                              ("compose_slant(alpha=0.9)", 0.9)):
        spec = load_catalog(catalog_id)
        gen = np.random.default_rng(61)
        for p in points_for(spec, 4, 62):
            frame = point_frame(spec, p)
            h = frame.split.horizontal.columns
            for _ in range(4):
                ca, cb = gen.standard_normal(2), gen.standard_normal(2)
                X, Y = h @ ca, h @ cb
                phix, omx = phi_omega_decompose(spec, p, X)
                phiy, omy = phi_omega_decompose(spec, p, Y)
                g1xy = frame.g_source.inner(X, Y)
                tangential = frame.g_target.inner(phix, phiy)
                normal = frame.g_target.inner(omx, omy)
                assert abs(tangential - math.cos(theta) ** 2 * g1xy) <= 1e-10
                assert abs(normal - math.sin(theta) ** 2 * g1xy) <= 1e-10


def test_sff_q_scaling_gating_and_pass():
    ex4 = load_catalog("example4")
    report = classify_slant(ex4, points_for(ex4, 5, 63))
    result = check_sff_q_scaling(ex4, points_for(ex4, 5, 63), report)
    assert result.passed

    compose = load_catalog("compose_slant(alpha=0.4)")
    report = classify_slant(compose, points_for(compose, 5, 64))
    result = check_sff_q_scaling(compose, points_for(compose, 5, 64), report)
    assert result.passed

    twist = load_catalog("kahler_twist")
    report = classify_slant(twist, points_for(twist, 5, 65))
    assert report.omega_parallel is False
    result = check_sff_q_scaling(twist, points_for(twist, 5, 65), report)
    assert result.status == "skipped"
    assert "precondition unmet" in result.reason


def test_harmonic_minimal_equivalence_catalog():
    compose = load_catalog("compose_slant")
    points = points_for(compose, 5, 66)
    report = classify_slant(compose, points)
    result = check_harmonic_minimal_equivalence(compose, points, report)
    assert result.passed
    assert result.detail["harmonic"] and result.detail["minimal_fibers"]

    warped = load_catalog("warped_fiber")
    points = points_for(warped, 5, 67)
    report = classify_slant(warped, points)
    assert report.omega_parallel
    result = check_harmonic_minimal_equivalence(warped, points, report)
    assert result.passed  # both sides fail together
    assert not result.detail["harmonic"]
    assert not result.detail["minimal_fibers"]
    # the trace identity ties the two residuals on this catalog map
    assert result.detail["tension_residual"] == pytest.approx(
        result.detail["fiber_residual"], rel=1e-9)


def test_totally_geodesic_example4(example4):
    result = check_totally_geodesic(example4, points_for(example4, 4, 68))
    assert result.passed
    assert result.detail["fibers_totally_geodesic"]
    assert result.detail["horizontal_totally_geodesic"]
    assert result.detail["pairing_holds"]
    assert result.detail["conditions_agree"]


def test_totally_geodesic_compose_slant():
    spec = load_catalog("compose_slant(alpha=0.3)")
    result = check_totally_geodesic(spec, points_for(spec, 4, 69))
    assert result.passed
    assert result.detail["conditions_agree"]


def test_totally_geodesic_twisted_flags_exactly_horizontal(twisted_submersion):
    points = points_for(twisted_submersion, 5, 70)
    result = check_totally_geodesic(twisted_submersion, points)
    assert result.status == "fail"
    assert result.detail["fibers_totally_geodesic"]
    assert not result.detail["horizontal_totally_geodesic"]
    assert result.detail["pairing_holds"]  # trivial normal space
    assert result.detail["conditions_agree"]


def test_totally_geodesic_curved_target_pairing_flags():
    spec = load_catalog("curved_target")
    result = check_totally_geodesic(spec, points_for(spec, 4, 71))
    assert result.status == "fail"
    assert not result.detail["pairing_holds"]
    assert result.detail["conditions_agree"]


def test_pairing_expansion_identity_on_kahler_targets():
    # sin^2(theta) <sff(X,Y), V> must equal the combination of the two normal
    # connection terms and the shape-operator pairing; kahler_twist keeps all
    # terms away from zero
    from oracles import fd_pullback_derivative
    from slantmap.slant import bc_from_frame, normal_part, q_apply
    for catalog_id, theta in (("kahler_twist", 0.6), ("example4", EX4_THETA),
                              ("warped_fiber", math.pi / 4)):
        spec = load_catalog(catalog_id)
        sin2 = math.sin(theta) ** 2
        nonzero = 0.0
        for p in points_for(spec, 3, 80):
            frame = point_frame(spec, p)
            h = frame.split.horizontal.columns
            perp = frame.split.range_perp.columns
            pushed = frame.jacobian @ h
            for a in range(frame.rank):
                X = h[:, a]
                for b in range(frame.rank):
                    Y = h[:, b]
                    _, omega_y = phi_omega_decompose(spec, p, Y)
                    qy = q_apply(frame, Y)

                    def perp_deriv(vec):
                        def section(q):
                            fq = point_frame(spec, q)
                            w = fq.complex_structure @ fq.pushforward(vec)
                            return normal_part(fq, w)
                        return normal_part(
                            frame, fd_pullback_derivative(frame, X, section))

                    n_y = perp_deriv(Y)
                    n_qy = perp_deriv(qy)
                    sff_xy = frame.sff_value(X, Y)
                    for v in range(perp.shape[1]):
                        V = perp[:, v]
                        bv, cv = bc_from_frame(frame, V)
                        lhs = sin2 * frame.g_target.inner(sff_xy, V)
                        shape = sum(
                            frame.g_target.inner(bv, pushed[:, c])
                            * frame.g_target.inner(omega_y,
                                                   frame.sff_value(X, h[:, c]))
                            for c in range(frame.rank))
                        rhs = (-frame.g_target.inner(n_qy, V) - shape
                               + frame.g_target.inner(n_y, cv))
                        assert abs(lhs - rhs) <= 1e-10, catalog_id
                        nonzero = max(nonzero, abs(lhs))
        if catalog_id == "kahler_twist":
            assert nonzero > 0.01


def test_phwc_catalog():
    for catalog_id in ("example4", "invariant", "compose_slant",
                       "kahler_twist", "warped_fiber"):
        spec = load_catalog(catalog_id)
        points = points_for(spec, 5, 72)
        report = classify_slant(spec, points)
        result = check_phwc(spec, points, report)
        assert result.passed, catalog_id
        assert result.residual <= 1e-9

    anti = load_catalog("anti_invariant")
    points = points_for(anti, 5, 73)
    report = classify_slant(anti, points)
    result = check_phwc(anti, points, report)
    assert result.status == "skipped"
    assert "undefined" in result.reason


def test_pseudo_homothetic_catalog():
    ex4 = load_catalog("example4")
    points = points_for(ex4, 4, 74)
    report = classify_slant(ex4, points)
    result = check_pseudo_homothetic(ex4, points, report)
    assert result.passed
    assert result.detail["structure_derivative_residual"] <= 1e-9
    assert result.detail["vertical_pairing_residual"] <= 1e-9

    compose = load_catalog("compose_slant(alpha=1.1)")
    points = points_for(compose, 4, 75)
    report = classify_slant(compose, points)
    assert check_pseudo_homothetic(compose, points, report).passed

    warped = load_catalog("warped_fiber")
    points = points_for(warped, 4, 76)
    report = classify_slant(warped, points)
    result = check_pseudo_homothetic(warped, points, report)
    assert result.status == "fail"
    assert result.detail["mixed_sff"] > 0.1
    assert result.witness is not None


def test_adapted_frame_check(example4):
    report = classify_slant(example4, points_for(example4, 4, 77))
    result = check_adapted_frame(example4, points_for(example4, 4, 77), report)
    assert result.passed
    assert result.residual <= 1e-10
