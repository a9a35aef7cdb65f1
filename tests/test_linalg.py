import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_inner_product_keeps_a_finite_metric_whose_sum_overflows():
    # entries above about 8.99e307 are finite, though twice them is not: the
    # symmetrized matrix is the input, its Cholesky factor finite
    ip = InnerProduct(np.array([[1e308, 0.0], [0.0, 1.0]]))
    assert ip.matrix.tolist() == [[1e308, 0.0], [0.0, 1.0]]
    assert ip.cholesky.tolist() == [[1e154, 0.0], [0.0, 1.0]]
    assert np.isfinite(ip.frame).all() and np.isfinite(ip.inverse).all()
    with pytest.raises(MetricError, match="positive definite"):
        InnerProduct([[1e308, 1e308], [1e308, 1e308]])


# eigvalsh puts this matrix's least eigenvalue at 2.8e-16 > 0, yet it has no
# Cholesky factor: the factorisation decides, so it is not positive definite
UNFACTORABLE = np.array([
    [2.597378468421213, -2.116127364814704, -0.7736108789547227],
    [-2.116127364814704, 2.096534781500679, 0.38632541928819236],
    [-0.7736108789547227, 0.38632541928819236, 0.39017889222023416]])


def test_a_metric_without_a_cholesky_factor_is_not_positive_definite():
    # the failing matrix is the factorisation's: a least eigenvalue at or
    # below zero would point at none of these three, an argmax at the first
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(UNFACTORABLE)
    with pytest.raises(MetricError, match="^inner product is not positive "
                       r"definite \(min eigenvalue ") as failure:
        InnerProduct(np.stack([np.eye(3), UNFACTORABLE, np.eye(3)]))
    assert failure.value.index == 1


def test_a_metric_singular_to_working_precision_is_not_positive_definite():
    # v v^T + (Jv)(Jv)^T has rank 2 of 4, yet its factorisation completes:
    # its condition is far above the limit, and the message names no number
    # of rounding size; a diagonal metric scaled near the ends of the floats
    # has the least condition, n, and an orthonormal frame
    J = np.array([[0.0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    v = np.array([1.0, 0.3, -0.7, 0.2])
    singular = np.outer(v, v) + np.outer(J @ v, J @ v)
    assert np.linalg.eigvalsh(singular).min() < 0.0 and _factors(singular)
    with pytest.raises(MetricError) as failure:
        InnerProduct(np.stack([np.eye(4), singular, np.eye(4)]))
    assert failure.value.index == 1
    assert str(failure.value) == ("inner product is not positive definite "
                                  "to working precision")
    for diagonal in ([1e308, 1.0], [1e-300, 1.0]):
        ip = InnerProduct(np.diag(diagonal))
        assert (ip.frame.T @ ip.matrix @ ip.frame == np.eye(2)).all()


def _factors(matrix) -> bool:
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _usable(matrix) -> bool:
    """Whether numpy factors the matrix G = L L^T with sum_i G_ii (G^{-1})_ii
    at most 1e5, where (G^{-1})_ii is the square norm of row i of L^{-T}."""
    if not _factors(matrix):
        return False
    with np.errstate(over="ignore"):
        frame = np.linalg.inv(np.linalg.cholesky(matrix)).T
        return bool((np.diag(matrix) * (frame ** 2).sum(axis=1)).sum() <= 1e5)


def _assert_orthonormal(columns, matrix):
    gram = columns.T @ matrix @ columns
    assert np.abs(gram - np.eye(columns.shape[-1])).max(initial=0.0) <= 1e-10


@st.composite
def symmetric_stacks(draw):
    """Stacks of symmetric n x n matrices: definite ones, A A^T + I; near
    singular ones, A A^T + k 2^-52 I with A of rank n - 1; and clearly
    indefinite ones, A A^T less (trace + 1) e_1 e_1^T."""
    n = draw(st.integers(1, 4))
    entries = st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("definite", "near_singular", "indefinite")))
        A = np.array(draw(entries)).reshape(n, n)
        if kind == "near_singular":
            A[:, -1] = A[:, :-1] @ np.array(draw(entries))[:n - 1]
        G = A @ A.T
        G = 0.5 * G + 0.5 * G.T
        if kind == "definite":
            G += np.eye(n)
        elif kind == "near_singular":
            G += draw(st.integers(-8, 8)) * 2.0 ** -52 * np.eye(n)
        else:
            G[0, 0] -= np.trace(G) + 1.0
        stack.append(G)
    return np.array(stack)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetric_stacks())
def test_cholesky_decides_positive_definiteness(stack):
    # a stack either factors with g-orthonormal frames, bit for bit as numpy
    # factors its symmetric part, or fails at the first matrix that numpy
    # cannot factor or that is too close to singular; never with a
    # LinAlgError.  A clearly negative matrix keeps its message.
    symmetric = 0.5 * stack + 0.5 * np.swapaxes(stack, -1, -2)
    failing = [i for i, matrix in enumerate(symmetric) if not _usable(matrix)]
    if not failing:
        ip = InnerProduct(stack)
        assert ip.cholesky.tobytes() == np.linalg.cholesky(symmetric).tobytes()
        for frame, matrix in zip(ip.frame, symmetric):
            _assert_orthonormal(frame, matrix)
        return
    with pytest.raises(MetricError) as failure:
        InnerProduct(stack)
    assert failure.value.index == failing[0]
    matrix = symmetric[failing[0]]
    lowest = np.linalg.eigvalsh(matrix).min()
    if _factors(matrix):
        assert str(failure.value) == ("inner product is not positive definite "
                                      "to working precision")
    elif lowest < -1e-8 * np.abs(matrix).max():
        assert str(failure.value) == ("inner product is not positive definite "
                                      f"(min eigenvalue {lowest:g})")


def test_usable_metrics_split_into_orthonormal_bases():
    # metrics near the condition limit, Q diag(1, ..., 10^-x) Q^T with x up
    # to 9 and some coordinates rescaled: those that InnerProduct accepts
    # have frames and split bases g-orthonormal within 1e-10, though the
    # split checks no basis
    gen = np.random.default_rng(11)
    accepted = 0
    for _ in range(1500):
        n = int(gen.integers(2, 6))
        Q = np.linalg.qr(gen.standard_normal((n, n)))[0]
        scale = np.diag(10.0 ** gen.uniform(-3, 3, n))
        G = scale @ Q @ np.diag([1.0] * (n - 1) + [10 ** -gen.uniform(3, 9)]) @ Q.T @ scale
        G = 0.5 * G + 0.5 * G.T
        try:
            ip = InnerProduct(G)
        except MetricError as failure:
            assert not _usable(G), str(failure)
            continue
        accepted += 1
        A = gen.standard_normal((int(gen.integers(1, n + 2)), n))
        split = split_tangent(A, ip, InnerProduct(np.eye(len(A))))
        _assert_orthonormal(ip.frame, G)
        _assert_orthonormal(np.hstack([split.horizontal.columns,
                                       split.kernel.columns]), G)
    assert 300 < accepted < 1200


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
    with pytest.raises(ValueError, match="orthonormal"):  # a NaN miss fails
        SubspaceBasis(np.full((2, 1), np.nan), ip)


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
