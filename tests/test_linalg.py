import numpy as np
import pytest

from slantmap.linalg import (InnerProduct, MetricError, SubspaceBasis,
                             _fix_signs, gram_schmidt, metric_adjoint,
                             project, split_tangent)
from slantmap.maps import differential
from oracles import (metric_adjoint_derivative, range_projector,
                     range_projector_derivative)


def random_spd(gen, n):
    a = gen.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_inner_product_rejects_bad_matrices():
    with pytest.raises(MetricError, match="symmetric"):
        InnerProduct([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(MetricError, match="positive definite"):
        InnerProduct([[1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(MetricError, match="positive definite"):
        InnerProduct(np.zeros((2, 2)))


def test_inner_product_rejects_non_finite_matrices():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(MetricError, match="non-finite"):
            InnerProduct([[bad, 0.0], [0.0, 1.0]])


def test_inner_product_frame_and_inverse_on_random_stacks():
    # the columns of frame = L^{-T} are g-orthonormal and inverse = G^{-1}
    gen = np.random.default_rng(3)
    for n in (1, 2, 3, 6, 8):
        stack = np.array([random_spd(gen, n) for _ in range(7)])
        ip = InnerProduct(stack)
        eye = np.broadcast_to(np.eye(n), stack.shape)
        gram = np.swapaxes(ip.frame, 1, 2) @ stack @ ip.frame
        assert np.abs(gram - eye).max() <= 1e-12
        assert np.abs(ip.inverse @ stack - eye).max() <= 1e-12


def test_inner_product_rows_equal_the_one_matrix_result():
    # row i of a stack is, bit for bit, the inner product of matrix i alone
    gen = np.random.default_rng(4)
    for n in (2, 3, 8):
        stack = np.array([random_spd(gen, n) for _ in range(5)])
        ip = InnerProduct(stack)
        for i, matrix in enumerate(stack):
            alone, row = InnerProduct(matrix), ip[i]
            for name in ("matrix", "cholesky", "frame", "inverse"):
                assert getattr(row, name).tobytes() == getattr(alone, name).tobytes(), name


def test_gram_schmidt_euclidean():
    ip = InnerProduct(np.eye(2))
    basis = gram_schmidt([[1.0, 0.0], [1.0, 1.0]], ip)
    np.testing.assert_allclose(basis.columns, np.eye(2), atol=1e-14)


def test_gram_schmidt_drops_dependent():
    ip = InnerProduct(np.eye(2))
    basis = gram_schmidt([[1.0, 0.0], [2.0, 0.0]], ip)
    assert basis.dim == 1
    np.testing.assert_allclose(basis.columns[:, 0], [1.0, 0.0])


def test_gram_schmidt_metric_normalization():
    ip = InnerProduct(np.diag([4.0, 1.0]))
    basis = gram_schmidt([[1.0, 0.0]], ip)
    np.testing.assert_allclose(basis.columns[:, 0], [0.5, 0.0])
    # oracle: check v^T G v = 1 directly
    v = basis.columns[:, 0]
    assert v @ ip.matrix @ v == pytest.approx(1.0, abs=1e-14)


def test_subspace_basis_validates_orthonormality():
    ip = InnerProduct(np.eye(2))
    with pytest.raises(ValueError, match="orthonormal"):
        SubspaceBasis(np.array([[2.0], [0.0]]), ip)


def test_metric_adjoint_orthogonal_euclidean():
    gen = np.random.default_rng(0)
    q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    ip = InnerProduct(np.eye(3))
    np.testing.assert_allclose(metric_adjoint(q, ip, ip), q.T, atol=1e-14)


def test_metric_adjoint_scalar_oracle():
    # oracle: solve g1(x, B y) = g2(A x, y) for scalars directly
    b = metric_adjoint([[2.0]], InnerProduct([[1.0]]), InnerProduct([[9.0]]))
    assert b[0, 0] == pytest.approx(18.0)


def test_metric_adjoint_characterization_random():
    gen = np.random.default_rng(1)
    for _ in range(10):
        n, m = int(gen.integers(1, 5)), int(gen.integers(1, 5))
        g1 = InnerProduct(random_spd(gen, n))
        g2 = InnerProduct(random_spd(gen, m))
        A = gen.standard_normal((m, n))
        B = metric_adjoint(A, g1, g2)
        for _ in range(5):
            x, y = gen.standard_normal(n), gen.standard_normal(m)
            lhs = x @ g1.matrix @ (B @ y)
            rhs = (A @ x) @ g2.matrix @ y
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_metric_adjoint_involution():
    gen = np.random.default_rng(2)
    g1 = InnerProduct(random_spd(gen, 3))
    g2 = InnerProduct(random_spd(gen, 4))
    A = gen.standard_normal((4, 3))
    back = metric_adjoint(metric_adjoint(A, g1, g2), g2, g1)
    assert np.abs(back - A).max() <= 1e-10


def test_example4_adjoint_inverts_on_horizontal(example4):
    A = differential(example4, np.zeros(4))
    ip4 = InnerProduct(np.eye(4))
    B = metric_adjoint(A, ip4, ip4)
    np.testing.assert_allclose(B, A.T, atol=1e-14)
    split = split_tangent(A, ip4, ip4)
    h = split.horizontal.columns
    np.testing.assert_allclose(B @ A @ h, h, atol=1e-12)


def test_split_identity():
    ip = InnerProduct(np.eye(3))
    split = split_tangent(np.eye(3), ip, ip)
    assert split.rank == 3
    assert split.kernel.dim == 0
    assert split.range_perp.dim == 0


def test_split_coordinate_projection():
    ip = InnerProduct(np.eye(2))
    split = split_tangent(np.array([[1.0, 0.0], [0.0, 0.0]]), ip, ip)
    assert split.rank == 1
    np.testing.assert_allclose(split.kernel.columns[:, 0], [0.0, 1.0])
    np.testing.assert_allclose(split.horizontal.columns[:, 0], [1.0, 0.0])
    np.testing.assert_allclose(split.range.columns[:, 0], [1.0, 0.0])
    np.testing.assert_allclose(split.range_perp.columns[:, 0], [0.0, 1.0])


def test_split_zero_matrix():
    ip2, ip3 = InnerProduct(np.eye(2)), InnerProduct(np.eye(3))
    split = split_tangent(np.zeros((3, 2)), ip2, ip3)
    assert split.rank == 0
    assert split.horizontal.dim == 0
    assert split.range.dim == 0
    assert split.kernel.dim == 2
    assert split.range_perp.dim == 3


def test_split_example4_kernel(example4):
    A = differential(example4, np.zeros(4))
    ip = InnerProduct(np.eye(4))
    split = split_tangent(A, ip, ip)
    assert split.rank == 2
    expected = [np.array([0, 1, -1, 0]) / np.sqrt(2), np.array([0, 0, 0, 1.0])]
    for vec in expected:
        residual = vec - project(vec, split.kernel)
        assert np.linalg.norm(residual) <= 1e-12


def test_split_dimensions_and_cross_grams():
    gen = np.random.default_rng(3)
    for _ in range(12):
        n, m = int(gen.integers(1, 6)), int(gen.integers(1, 6))
        rank = int(gen.integers(0, min(n, m) + 1))
        A = (gen.standard_normal((m, rank)) @ gen.standard_normal((rank, n))
             if rank else np.zeros((m, n)))
        g1 = InnerProduct(random_spd(gen, n))
        g2 = InnerProduct(random_spd(gen, m))
        split = split_tangent(A, g1, g2)
        assert split.rank == rank
        assert split.kernel.dim + split.horizontal.dim == n
        assert split.range.dim + split.range_perp.dim == m
        assert split.horizontal.dim == split.range.dim == rank
        if split.kernel.dim and split.horizontal.dim:
            cross = split.kernel.columns.T @ g1.matrix @ split.horizontal.columns
            assert np.abs(cross).max() <= 1e-10
        if split.range.dim and split.range_perp.dim:
            cross = split.range.columns.T @ g2.matrix @ split.range_perp.columns
            assert np.abs(cross).max() <= 1e-10
        if split.kernel.dim:
            assert np.abs(A @ split.kernel.columns).max() <= 1e-9 * max(
                1.0, np.abs(A).max())


def test_split_deterministic_signs():
    gen = np.random.default_rng(4)
    A = gen.standard_normal((4, 3))
    ip3, ip4 = InnerProduct(np.eye(3)), InnerProduct(np.eye(4))
    first = split_tangent(A, ip3, ip4)
    second = split_tangent(A.copy(), ip3, ip4)
    np.testing.assert_array_equal(first.horizontal.columns,
                                  second.horizontal.columns)
    for basis in (first.horizontal, first.kernel, first.range, first.range_perp):
        for j in range(basis.dim):
            col = basis.columns[:, j]
            lead = col[np.abs(col) > 1e-10 * np.abs(col).max()][0]
            assert lead > 0


def test_project_idempotent_and_complement():
    gen = np.random.default_rng(5)
    gp = InnerProduct(random_spd(gen, 4))
    vecs = [gen.standard_normal(4) for _ in range(2)]
    basis = gram_schmidt(vecs, gp)
    v = gen.standard_normal(4)
    once = project(v, basis)
    np.testing.assert_allclose(project(once, basis), once, atol=1e-12)
    rest = v - once
    for j in range(basis.dim):
        assert abs(rest @ gp.matrix @ basis.columns[:, j]) <= 1e-12


def test_project_in_span_and_orthogonal():
    ip = InnerProduct(np.eye(3))
    basis = gram_schmidt([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ip)
    inside = np.array([0.3, -0.7, 0.0])
    np.testing.assert_allclose(project(inside, basis), inside, atol=1e-14)
    np.testing.assert_allclose(project([0.0, 0.0, 2.0], basis), 0.0, atol=1e-14)


def test_project_example4_range_norm(example4):
    A = differential(example4, np.zeros(4))
    ip = InnerProduct(np.eye(4))
    split = split_tangent(A, ip, ip)
    image = project([0.0, 1.0, 0.0, 0.0], split.range)
    assert image @ image == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_project_metric_symmetric():
    gen = np.random.default_rng(6)
    gp = InnerProduct(random_spd(gen, 5))
    basis = gram_schmidt([gen.standard_normal(5) for _ in range(3)], gp)
    for _ in range(5):
        u, v = gen.standard_normal(5), gen.standard_normal(5)
        lhs = project(u, basis) @ gp.matrix @ v
        rhs = u @ gp.matrix @ project(v, basis)
        assert abs(lhs - rhs) <= 1e-10


def test_projector_and_adjoint_derivatives_match_centered_differences():
    # A(t) keeps rank r while both metrics move; the closed forms must match
    # centered differences of the projector and the adjoint in t
    gen = np.random.default_rng(7)
    h = 1e-6
    for n, m, r in ((3, 4, 2), (5, 6, 4), (4, 4, 4), (4, 6, 1)):
        left = [gen.standard_normal((m, r)) for _ in range(2)]
        right = [gen.standard_normal((r, n)) for _ in range(2)]
        G1 = [random_spd(gen, n), 0.3 * random_spd(gen, n)]
        G2 = [random_spd(gen, m), 0.3 * random_spd(gen, m)]

        def at(t):
            A = (left[0] + t * left[1]) @ (right[0] + t * right[1])
            return A, InnerProduct(G1[0] + t * G1[1]), InnerProduct(G2[0] + t * G2[1])

        def projector(t):
            A, g1, g2 = at(t)
            basis = split_tangent(A, g1, g2).range
            return np.column_stack([project(e, basis) for e in np.eye(m)])

        def adjoint(t):
            A, g1, g2 = at(t)
            return metric_adjoint(A, g1, g2)

        A, g1, g2 = at(0.0)
        dA = left[1] @ right[0] + left[0] @ right[1]
        split = split_tangent(A, g1, g2)
        P = range_projector(split)
        dP = range_projector_derivative(P, A, dA, split, G2[1])
        np.testing.assert_allclose(P, projector(0.0), atol=1e-12)
        np.testing.assert_allclose(
            dP, (projector(h) - projector(-h)) / (2 * h), atol=1e-7)
        dB = metric_adjoint_derivative(metric_adjoint(A, g1, g2), A, dA, g1,
                                       G1[1], g2, G2[1])
        np.testing.assert_allclose(
            dB, (adjoint(h) - adjoint(-h)) / (2 * h), atol=1e-7)


def _masked_fix_signs(columns):
    """_fix_signs by a mask of each column's first significant component
    (the running count of significant ones is 1 there), summed out."""
    magnitude = np.abs(columns)
    largest = np.maximum(magnitude.max(axis=-2, keepdims=True, initial=0.0), 1e-300)
    significant = magnitude > 1e-10 * largest
    first = significant & (np.cumsum(significant, axis=-2) == 1)
    flip = np.where(first, columns, 0.0).sum(axis=-2, keepdims=True) < 0
    return np.where(flip, -columns, columns)


def test_fix_signs_gather_equals_the_masked_sum_bit_for_bit():
    # columns of zeros, tiny and non-finite entries among normal ones: a
    # column with no significant component (zero, NaN or infinite) is never
    # flipped, and every other byte is the masked route's
    gen = np.random.default_rng(13)
    specials = [0.0, -0.0, 1e-300, -1e-300, 5e-11, -5e-11, 1.0, -1.0,
                np.nan, np.inf, -np.inf]
    for _ in range(2000):
        shape = tuple(gen.integers(1, 5, size=3))
        columns = gen.standard_normal(shape) * 10.0 ** gen.integers(-20, 5, size=shape)
        mask = gen.random(shape) < 0.3
        columns[mask] = gen.choice(specials, size=mask.sum())
        assert _fix_signs(columns).tobytes() == _masked_fix_signs(columns).tobytes()


@pytest.mark.parametrize("matrix", [np.eye(2)[:, :1], np.ones(3), 1.0])
def test_inner_product_must_be_square(matrix):
    with pytest.raises(MetricError, match="must be square"):
        InnerProduct(matrix)


def test_subspace_basis_columns_must_be_2d():
    with pytest.raises(ValueError, match="2d array"):
        SubspaceBasis(np.array([1.0, 0.0]), InnerProduct(np.eye(2)))


def test_gram_schmidt_of_no_vectors_is_the_empty_basis():
    ip = InnerProduct(np.diag([2.0, 3.0, 5.0]))
    basis = gram_schmidt([], ip)
    assert basis.columns.shape == (3, 0) and basis.dim == 0
    # projecting onto it gives the zero vector, of v's shape
    projected = project([1.0, -2.0, 4.0], basis)
    assert projected.tolist() == [0.0, 0.0, 0.0]


def test_metric_adjoint_and_split_tangent_reject_mismatched_shapes():
    g1, g2 = InnerProduct(np.eye(2)), InnerProduct(np.eye(3))
    with pytest.raises(ValueError, match=r"does not match metrics \(3x2 expected\)"):
        metric_adjoint(np.ones((2, 3)), g1, g2)
    with pytest.raises(ValueError, match="does not match metrics"):
        split_tangent(np.ones((2, 3)), g1, g2)
