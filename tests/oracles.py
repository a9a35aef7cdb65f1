"""Independent finite-difference oracles used to pin expected values, slant
angles of sampled directions, the reference fold the checks' witness
reduction is compared against, the first failing frame found one point at a
time, the sample drawn one point at a time, a fresh copy of a shared spec, the plain-derivative route to
the section derivatives, the chart-coordinate route to every check
residual, the np.einsum forms of the library's stacked contractions, and the
rule by which two reports match.  Beside them, for tests whose references
are chart vectors, the library's adapted members (phi and omega, B and C,
Q) are mapped into chart coordinates through B1, B2, C1 and C2: those
helpers are the library side of such a test, never its reference.

The finite-difference oracles differentiate plain evaluations with central
differences, so agreement with the library's exact derivatives is a real
two-route check.  The curve-derivative oracles differentiate a section by
rebuilding it off the base point; only their Christoffel correction comes
from the frame.  The plain route differentiates F_*, the metrics and J
exactly along coordinate curves, the projector and the adjoint through their
matrix derivatives, and adds the Christoffel terms back, where the library
reads the second fundamental form and nabla J.  The chart route forms each
check residual in chart coordinates, with solved adjoints and g-norms taken
under the metric matrices, where the library reads components in the
split's orthonormal frames.
"""

import math
from dataclasses import replace

import numpy as np

from slantmap.charts import ChartError
from slantmap.expressions import eval_jet2, eval_jets
from slantmap.linalg import apply_along, lift, metric_adjoint
from slantmap.maps import (SectionDerivatives, differential, map_point,
                           point_frame)

FD_STEP = 1e-5


def fd_gradient(f, p, h=FD_STEP):
    p = np.asarray(p, dtype=float)
    out = np.empty(len(p))
    for i in range(len(p)):
        e = np.zeros(len(p))
        e[i] = h
        out[i] = (f(p + e) - f(p - e)) / (2 * h)
    return out


def fd_hessian(f, p, h=FD_STEP):
    p = np.asarray(p, dtype=float)
    n = len(p)
    out = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            value = (f(p + ei + ej) - f(p + ei - ej)
                     - f(p - ei + ej) + f(p - ei - ej)) / (4 * h * h)
            out[i, j] = out[j, i] = value
    return out


def eval_value(expr, p) -> float:
    return eval_jet2(expr, p, 0).value


def metric_values(chart, p):
    n = chart.dim
    return np.array([[eval_value(chart.metric[i][j], p) for j in range(n)]
                     for i in range(n)])


def fd_christoffel(chart, p, h=FD_STEP):
    """Christoffel symbols from finite-differenced metric entries."""
    p = np.asarray(p, dtype=float)
    n = chart.dim
    grads = np.empty((n, n, n))  # grads[i, j, l] = d_l g_ij
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        grads[:, :, l] = (metric_values(chart, p + e)
                          - metric_values(chart, p - e)) / (2 * h)
    inverse = np.linalg.inv(metric_values(chart, p))
    gamma = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                lower = sum(inverse[k, l] * (grads[j, l, i] + grads[i, l, j]
                                             - grads[i, j, l])
                            for l in range(n))
                gamma[k, i, j] = 0.5 * lower
    return gamma


def fd_nabla_j(chart, p, h=FD_STEP):
    """(nabla_i J)^a_b at [i, a, b] from finite-differenced entries of J and
    the finite-difference Christoffel symbols."""
    p = np.asarray(p, dtype=float)
    n = chart.dim

    def J(q):
        return np.array([[eval_value(chart.complex_structure[a][b], q)
                          for b in range(n)] for a in range(n)])

    dJ = np.array([(J(p + h * e) - J(p - h * e)) / (2 * h) for e in np.eye(n)])
    gamma = fd_christoffel(chart, p, h)
    return (dJ + np.einsum("aic,cb->iab", gamma, J(p))
            - np.einsum("cib,ac->iab", gamma, J(p)))


def fd_sff(spec, p, X, Y, h=FD_STEP):
    """Second fundamental form via curve differentiation, fully FD-based.

    d/dt [Jac(p + tX) Y] + Gamma2_fd(F(p))(F_*X, F_*Y) - F_*(Gamma1_fd(X, Y)).
    """
    p = np.asarray(p, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    jac = differential(spec, p)
    dv = (differential(spec, p + h * X) @ Y
          - differential(spec, p - h * X) @ Y) / (2 * h)
    fx, fy = jac @ X, jac @ Y
    gamma2 = fd_christoffel(spec.target, map_point(spec, p), h)
    gamma1 = fd_christoffel(spec.source, p, h)
    correction = np.einsum("gab,a,b->g", gamma2, fx, fy)
    pulled = jac @ np.einsum("kij,i,j->k", gamma1, X, Y)
    return dv + correction - pulled


def _centered_curve_difference(p, X, section, h):
    p = np.asarray(p, dtype=float)
    X = np.asarray(X, dtype=float)
    return (section(p + h * X) - section(p - h * X)) / (2.0 * h)


def fd_pullback_derivative(spec, frame, X, section, h=FD_STEP):
    """Pullback-connection derivative of a target-vector section along
    t -> p + tX: centered difference plus the target Christoffel term, Gamma2
    taken from spec's target chart at the image."""
    dv = _centered_curve_difference(frame.point, X, section, h)
    fx = frame.jacobian @ np.asarray(X, dtype=float)
    gamma_target = spec.target.metric_at(frame.image)[1]
    return dv + np.einsum("gab,a,b->g", gamma_target, fx, section(frame.point))


def source_gamma(frames) -> np.ndarray:
    """The source Christoffel symbols of a frame or a stack: the zeros that
    a None stands for where the source chart is constant."""
    if frames.gamma_source is not None:
        return frames.gamma_source
    return np.zeros(frames.points.shape + frames.points.shape[-1:] * 2)


def target_nabla_j(frames) -> np.ndarray:
    """nabla J of a frame or a stack: the zeros that a None stands for where
    the target chart is constant."""
    if frames.nabla_j is not None:
        return frames.nabla_j
    return np.zeros(frames.images.shape + frames.images.shape[-1:] * 2)


def fd_source_derivative(frame, X, section, h=FD_STEP):
    """Source-connection derivative of a source-vector section along
    t -> p + tX: centered difference plus the source Christoffel term."""
    dv = _centered_curve_difference(frame.point, X, section, h)
    return dv + np.einsum("kij,i,j->k", source_gamma(frame),
                          np.asarray(X, dtype=float), section(frame.point))


def metric_derivative(G, gamma, X) -> np.ndarray:
    """Derivatives of the metric matrix G along the columns of X, stacked
    along an axis before the matrix axes (after the point axis, for a stack
    of metrics) and recovered from its Levi-Civita symbols:
    d_k g_ij = g_il Gamma^l_kj + g_jl Gamma^l_ki."""
    lowered = G[..., None, :, :] @ apply_along(np.swapaxes(X, -1, -2), gamma, 1)
    return lowered + np.swapaxes(lowered, -1, -2)


def metric_adjoint_derivative(adjoint, A, dA, g1, dG1, g2, dG2) -> np.ndarray:
    """Derivative of ``adjoint``, the metric adjoint of A, when A, G1 and G2
    move with velocities dA, dG1 and dG2: G1^-1 (dA^T G2 + A^T dG2 - dG1
    adjoint).  Velocities stacked along an axis before the matrix axes (after
    the point axis, for a stack) give one derivative per entry."""
    G1, G2, At, adjoint = (lift(x, dA.ndim) for x in (
        g1.matrix, g2.matrix, np.swapaxes(A, -1, -2), adjoint))
    return np.linalg.solve(G1, np.swapaxes(dA, -1, -2) @ G2 + At @ dG2
                           - dG1 @ adjoint)


def range_projector(split) -> np.ndarray:
    """The g2-orthogonal projector R R^T G2 onto the range of the split map
    (at each point, for a stacked split)."""
    R = split.range.columns
    return R @ np.swapaxes(R, -1, -2) @ split.range.metric.matrix


def range_projector_derivative(P, A, dA, split, dG2) -> np.ndarray:
    """Derivative of P, the g2-orthogonal projector onto range A.

    A moves with velocity dA and the target metric with velocity dG2, at
    constant rank.  With the metric pseudo-inverse A+ = H S^-1 R^T G2 built
    from the split bases (S = R^T G2 A H) and K = (I - P) dA A+,

        dP = K + G2^-1 K^T G2 + G2^-1 P^T dG2 (I - P)

    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973).  Velocities stacked
    along an axis before the matrix axes (after the point axis, for a stack)
    give one derivative per entry.
    """
    G2 = split.range.metric.matrix
    H = split.horizontal.columns
    Rt_G2 = np.swapaxes(split.range.columns, -1, -2) @ G2
    pseudo_inverse = H @ np.linalg.solve(Rt_G2 @ A @ H, Rt_G2)
    complement = np.eye(G2.shape[-1]) - P
    complement, pseudo_inverse, G2, Pt = (lift(x, dA.ndim) for x in (
        complement, pseudo_inverse, G2, np.swapaxes(P, -1, -2)))
    K = complement @ dA @ pseudo_inverse
    return K + np.linalg.solve(G2, np.swapaxes(K, -1, -2) @ G2
                               + Pt @ dG2 @ complement)


def curve_section_derivatives(spec, frames, X) -> SectionDerivatives:
    """maps.section_derivatives by the plain route: derivatives along the
    curves t -> p + tX_a, one for each column X_a of the (n, k) matrix X, at
    one frame of ``spec`` or at every point of a FrameStack with X of shape
    (N, n, k).

    Along a curve F_* moves by dA = Hess(F) X_a, the metrics by dG1 (along
    X_a) and dG2 (along F_*X_a), and J by its gradient along F_*X_a, the
    Hessian and the gradient of J evaluated here from the expressions.  With
    the projector P onto the range, phi = P J A and omega = (I - P) J A, so
    d phi = dP J A + P d(J A) and Q = adjoint phi; P and the adjoint are
    differentiated exactly at constant rank.  The target (pullback) and
    source Christoffel terms then turn the plain derivatives into the
    tensors nabla Q and the two defects.
    """
    X = np.asarray(X, dtype=float)
    A = frames.jacobian
    fx = A @ X
    fx_rows = np.swapaxes(fx, -1, -2)
    hessian = eval_jets(spec.components, frames.points, 2)[2]
    dA = np.moveaxis(hessian @ X[..., None, :, :], -1, -3)
    J, J_grad = spec.target.complex_structure_jet(frames.images)
    gamma_source = spec.source.metric_at(frames.points)[1]
    gamma_target = spec.target.metric_at(frames.images)[1]

    def along(x):  # a point quantity, broadcast along the directions
        return lift(x, dA.ndim)

    projector = range_projector(frames.split)
    adjoint = metric_adjoint(A, frames.g_source, frames.g_target)
    JA, P = along(J @ A), along(projector)
    phi = P @ JA
    dG1 = metric_derivative(frames.g_source.matrix, gamma_source, X)
    dG2 = metric_derivative(frames.g_target.matrix, gamma_target, fx)
    dJ = apply_along(fx_rows, J_grad, 0)
    dP = range_projector_derivative(projector, A, dA, frames.split, dG2)
    dJA = dJ @ along(A) + along(J) @ dA
    d_phi = dP @ JA + P @ dJA
    d_adjoint = metric_adjoint_derivative(adjoint, A, dA, frames.g_source,
                                          dG1, frames.g_target, dG2)
    target_connection = apply_along(fx_rows, gamma_target, 1)
    source_connection = apply_along(np.swapaxes(X, -1, -2), gamma_source, 1)
    nabla_phi = d_phi + target_connection @ phi
    nabla_omega = dJA - d_phi + target_connection @ (JA - phi)
    Q = along(adjoint) @ phi
    return SectionDerivatives(
        q=(d_adjoint @ phi + along(adjoint) @ d_phi
           + source_connection @ Q - Q @ source_connection),
        omega_defect=(nabla_omega - P @ nabla_omega
                      - (JA - phi) @ source_connection),
        phi_defect=(nabla_phi - phi @ source_connection
                    - frames.sff_value(X, adjoint @ projector @ J @ A)))


# ---------------------------------------------------------------------------
# The library's adapted members in chart coordinates, for tests whose
# references are chart vectors: a vector enters through C1 or C2, and a
# result leaves through B1 or B2.

def chart_phi_omega(frames, X):
    """phi F_*X and omega F_*X in chart coordinates, from the rows of
    adapted_j_pushforward: for a vector X, for each column of a matrix X, or
    for each matrix of X's extra axes (after the point axis, for a stack)."""
    return _range_and_normal(frames, frames.adapted_j_pushforward
                             @ frames.source_coframe, X)


def chart_bc(frames, V):
    """The range and normal parts of J V in chart coordinates, B V and C V
    for a normal V, from j_blocks; V is read as X in chart_phi_omega."""
    return _range_and_normal(frames, frames.j_blocks @ frames.target_coframe, V)


def chart_q(frames):
    """Q in chart coordinates, B1 adapted_q C1, so that Q X = chart_q @ X."""
    return frames.source_basis @ frames.adapted_q @ frames.source_coframe


def _range_and_normal(frames, M, v):
    """R and N times the range and normal rows of M v, where M maps chart
    vectors to their images' components in B2."""
    v = np.asarray(v, dtype=float)
    vector = v.ndim == 1
    if vector:
        v = v[:, None]
    w, B2, r = lift(M, v.ndim) @ v, lift(frames.target_basis, v.ndim), frames.rank
    parts = B2[..., :r] @ w[..., :r, :], B2[..., r:] @ w[..., r:, :]
    return tuple(part[:, 0] for part in parts) if vector else parts


def sampled_slant_angles(sample, count=200, seed=0):
    """The slant angles of ``count`` random unit horizontal directions at
    each point of a Sample, (len(sample), count), one
    PointFrame.slant_angle call each."""
    rng = np.random.default_rng(seed)
    angles = np.empty((len(sample), count))
    for rows, stack in sample.stacks():
        for row, i in enumerate(rows):
            # a stack holds a frame per row, or one frame for all its rows
            frame = stack.row(row if len(stack) > 1 else 0)
            coefficients = rng.standard_normal((count, frame.rank))
            coefficients /= np.linalg.norm(coefficients, axis=1, keepdims=True)
            for k, c in enumerate(coefficients):
                angles[i, k] = frame.slant_angle(frame.split.horizontal.columns @ c)
    return angles


def fold_worst_residual(items, ulps=8):
    """The reference reduction over (entries, point) pairs, one point at a
    time: a point's residual is the Frobenius norm of its entries, a NaN
    entry counted as 0, taken of the entries times the power of two that
    brings the largest finite one into [0.5, 1) and then times the inverse,
    so that no square overflows or underflows; the largest residual, and as
    witness the first point whose residual lies within ``ulps`` relative
    ulps of it; with no residual above 0.0 there is no witness."""
    def norm(entries):
        entries = np.where(np.isnan(entries), 0.0, entries)
        finite = np.abs(entries[np.isfinite(entries)])
        exponent = np.frexp(finite.max(initial=0.0))[1]
        return np.ldexp(np.sqrt(np.square(np.ldexp(entries, -exponent)).sum()),
                        exponent)

    items = [(norm(entries), point) for entries, point in items]
    worst = max((float(r) for r, _ in items), default=0.0)
    for residual, point in items:
        if worst > 0.0 and residual >= worst * (1.0 - ulps * np.finfo(float).eps):
            return worst, {"point": [float(x) for x in point]}
    return 0.0, None


def sample_points_by_point(box, count, seed):
    """The sample one point at a time: a list of count arrays, each drawn by
    its own rng.random(dim) call, in the generator's order."""
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    return [lows + rng.random(len(box)) * (highs - lows) for _ in range(count)]


def fresh_spec(spec):
    """A copy of spec that has kept nothing: a new MapSpec over new
    ChartManifolds.  A catalog spec is shared by the process, and it and its
    charts keep what an analysis forms on them (the frame, its members and
    the target's residuals), so a test that patches what forms them, or
    counts it, analyses a fresh copy; ``replace(spec)`` alone keeps the
    shared charts."""
    return replace(spec, source=replace(spec.source),
                   target=replace(spec.target))


def first_failing_frame(spec, points):
    """How many of the points, in order, get a frame before the first whose
    ``point_frame`` raises, and the riemannian_map reason of that error (None
    when every point gets one): each point is built alone."""
    for count, p in enumerate(points):
        try:
            point_frame(spec, p)
        except ChartError as exc:  # a ChartError's entry is its message alone
            return count, str(exc)
        except Exception as exc:
            return count, f"{type(exc).__name__}: {exc}"
    return len(points), None


# The np.einsum call each stacked contraction of the library, and of the
# plain route above, was written as, by the site that computed it; they were
# formed with batched matrix products through slantmap.linalg.pairings and
# apply_along.  The sites that now read the adapted frames (InnerProduct.norms,
# adapted_frames) keep their entry, so the forms stay checked.
REPLACED_EINSUMS = {
    "linalg.InnerProduct.norms": "...ia,...ij,...ja->...a",
    "maps.PointFrame.adapted_frames": "...i,...ij,...ja->...a",
    "maps._bilinear": "...gij,...ia->...agj",
    "maps.FrameStack.tension": "...ij,...gij->...g",
    "maps.frame_block.source_christoffel": "nkij,ngk->ngij",
    "maps.frame_block.target_christoffel": "ngab,nai,nbj->ngij",
    "maps.section_derivatives.dJ": "...cab,...ck->...kab",
    "charts.christoffel": "...kl,...ijl->...kij",
    "oracles.metric_derivative": "...lkj,...ka->...alj",
    "oracles.curve_section_derivatives.target_connection": "...gab,...ak->...kgb",
    "oracles.curve_section_derivatives.source_connection": "...kij,...ia->...akj",
    "charts.check_kahler.gamma_j": "naic,ncb->niab",
    "charts.check_kahler.j_gamma": "nac,ncib->niab",
    "charts.check_kahler.contracted": "niab,nix,nby->naxy",
    "charts.check_kahler.squares": "naxy,nab,nbxy->n",
    "charts.check_kahler.pair_squares": "naxy,nab,nbxy->nxy",
}


def einsum_pairings(U, G, V):
    """Reference for linalg.pairings."""
    return np.einsum("...ia,...ij,...ja->...a", U, lift(G, V.ndim), V)


def einsum_apply_along(x, tensor, axis):
    """Reference for linalg.apply_along."""
    return np.einsum(("...kl,...lij->...kij", "...kl,...ilj->...kij")[axis],
                     x, tensor)


def assert_report_matches(actual, expected, where="report"):
    """The golden files' rule: non-float values must be identical, floats
    within 1e-12 absolute, and dict keys in the same order."""
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        assert abs(actual - expected) <= 1e-12, (where, actual, expected)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key, value in expected.items():
            assert_report_matches(actual[key], value, f"{where}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, value in enumerate(expected):
            assert_report_matches(actual[i], value, f"{where}/{i}")
    else:
        assert type(actual) is type(expected) and actual == expected, where


# ---------------------------------------------------------------------------
# The plain chart-coordinate route to every check residual: the library's
# residual functions before it read the adapted frames.  Vectors are chart
# coordinates, adjoints are solved under the metrics, and each residual is a
# g-norm taken with the metric matrices, one per entry; a point's residual
# is the Frobenius norm of its g-norms.

def _g_norms(V, G):
    """g-norms of the columns of V (N, ..., m, a) under G (N, m, m)."""
    squares = np.einsum("...ia,...ij,...ja->...a", V, lift(G, V.ndim), V)
    return np.sqrt(np.maximum(squares, 0.0))


def _point_norms(entries):
    entries = np.asarray(entries, dtype=float)
    return np.sqrt(np.square(entries).reshape(len(entries), -1).sum(axis=1))


def _pairs(tensor, X, Y):
    """tensor(x_a, y_b) at [:, a, :, b] over the columns of X and Y."""
    return np.einsum("...gij,...ia,...jb->...agb", tensor, X, Y)


def chart_operators(frames) -> dict:
    """F_*, J, the g2-projector P onto the range, phi = P J F_*, the metric
    adjoint of F_*, Q, its pseudo-inverse and the two metrics' matrices."""
    A, J = frames.jacobian, frames.complex_structure
    split = frames.split
    P = range_projector(split)
    adjoint = metric_adjoint(A, frames.g_source, frames.g_target)
    H, G2 = split.horizontal.columns, frames.g_target.matrix
    Rt_G2 = np.swapaxes(split.range.columns, -1, -2) @ G2
    return {"A": A, "J": J, "P": P, "phi": P @ J @ A, "adjoint": adjoint,
            "Q": adjoint @ P @ J @ A, "G1": frames.g_source.matrix, "G2": G2,
            "A_plus": H @ np.linalg.solve(Rt_G2 @ A @ H, Rt_G2)}


def chart_section_derivatives(frames, X) -> SectionDerivatives:
    """The closed-form section derivatives in chart coordinates, with the
    projector derivative K + K* and the adjoint solved under the metrics."""
    o = chart_operators(frames)
    sff_x = np.einsum("...gij,...ia->...agj", frames.sff, X)
    A, J, P, phi, A_plus, adjoint, Q, G1, G2 = (lift(o[k], sff_x.ndim) for k in (
        "A", "J", "P", "phi", "A_plus", "adjoint", "Q", "G1", "G2"))
    K = (np.eye(P.shape[-1]) - P) @ sff_x @ A_plus
    nabla_P = K + np.linalg.solve(G2, np.swapaxes(K, -1, -2) @ G2)
    nabla_J = np.einsum("...cab,...ck->...kab", target_nabla_j(frames),
                        frames.jacobian @ X)
    nabla_JA = nabla_J @ A + J @ sff_x
    nabla_phi = nabla_P @ J @ A + P @ nabla_JA
    nabla_omega = nabla_JA - nabla_phi
    return SectionDerivatives(
        q=(np.linalg.solve(G1, np.swapaxes(sff_x, -1, -2) @ G2 @ phi)
           + adjoint @ nabla_phi),
        omega_defect=nabla_omega - P @ nabla_omega,
        phi_defect=nabla_phi - sff_x @ Q)


def chart_residuals(frames, factor, sec, angle_tol) -> dict:
    """Each check's residual at each point of a FrameStack, (N,), by the
    plain chart route: the name of the check, or check.detail for a detail
    and slant.field for a field of the slant block; ``factor`` is
    -cos^2(mean angle), ``sec`` its secant, and the adapted frame is the
    library's, mapped into chart coordinates."""
    o = chart_operators(frames)
    A, J, P, Q, G1, G2 = (o[k] for k in ("A", "J", "P", "Q", "G1", "G2"))
    split, sff, r = frames.split, frames.sff, frames.rank
    h, k = split.horizontal.columns, split.kernel.columns
    perp = split.range_perp.columns
    N, n, m = len(frames), h.shape[-2], A.shape[-2]
    eye = np.eye(m)
    sff_hh = _pairs(sff, h, h)
    out = {}

    def gram(columns, G):
        return np.swapaxes(columns, -1, -2) @ G @ columns - np.eye(columns.shape[-1])

    out["riemannian_map"] = _point_norms(gram(A @ h, G2))
    # |F_*|^2 = tr(G1^-1 A^T G2 A), over every direction, kernel included
    out["riemannian_map.eikonal_residual"] = np.abs(np.trace(
        np.linalg.solve(G1, np.swapaxes(A, -1, -2) @ G2 @ A),
        axis1=-2, axis2=-1) - r)
    out["sff_range_perp"] = _point_norms(_g_norms(lift(P, 4) @ sff_hh, G2))
    tension = np.einsum("...gij,...ij->...g", sff, np.linalg.inv(G1))
    out["harmonic"] = _point_norms(_g_norms(tension[..., None], G2))
    if k.shape[-1]:
        fibers = np.einsum("...gij,...ia,...ja->...g", sff, k, k)
        out["minimal_fibers"] = _point_norms(_g_norms(fibers[..., None], G2))
    basis = np.concatenate([k, h], axis=-1)
    out["totally_geodesic"] = _point_norms(_g_norms(_pairs(sff, basis, basis), G2))
    out["totally_geodesic.fiber_residual"] = _point_norms(
        _g_norms(_pairs(sff, k, k), G2))
    gamma_hh = _pairs(source_gamma(frames), h, h)
    kernel_covector = np.swapaxes(k, -1, -2) @ G1
    out["totally_geodesic.horizontal_residual"] = _point_norms(
        lift(kernel_covector, 4) @ gamma_hh)
    derivatives = chart_section_derivatives(frames, h)
    omega_defect = derivatives.omega_defect @ lift(h, 4)
    phi_defect = derivatives.phi_defect @ lift(h, 4)
    dq = derivatives.q @ lift(h, 4)
    omega = (lift(eye - P, 4) @ lift(J @ A, 4))
    if perp.shape[-1] and r:
        JV = J @ perp
        bv, cv = P @ JV, JV - P @ JV
        omega_h = (eye - P) @ J @ A @ h
        d_omega = omega_defect + omega @ gamma_hh
        paired = np.swapaxes(bv, -1, -2) @ G2 @ A @ h
        lhs = (lift(paired, 4) @ np.swapaxes(sff_hh, -1, -2) @ lift(G2, 4)
               @ lift(omega_h, 4))
        q = np.swapaxes(h, -1, -2) @ G1 @ Q @ h
        rhs = (lift(np.swapaxes(cv, -1, -2) @ G2, 4) @ d_omega
               - lift(np.swapaxes(perp, -1, -2) @ G2, 4) @ d_omega @ lift(q, 4))
        out["totally_geodesic.pairing_residual"] = _point_norms(lhs - rhs)
    else:
        out["totally_geodesic.pairing_residual"] = np.zeros(N)
    out["slant.omega_defect"] = _point_norms(_g_norms(omega_defect, G2))
    out["slant.phi_defect"] = _point_norms(_g_norms(phi_defect, G2))
    columns = h @ frames.adapted_frames(angle_tol)[0]
    out["adapted_frame"] = _point_norms(gram(columns, G1))
    normal_sff = lift(eye - P, 4) @ sff_hh
    c_part = lift(eye - P, 4) @ lift(J, 4) @ normal_sff
    out["omega_defect_identity"] = _point_norms(_g_norms(
        omega_defect - (c_part - _pairs(sff, h, Q @ h)), G2))
    qh = Q @ h
    out["sff_q_scaling"] = _point_norms(_g_norms(
        _pairs(sff, qh, qh) - factor * sff_hh, G2))
    jhat = sec * (np.swapaxes(h, -1, -2) @ G1 @ Q @ h)
    identity = np.eye(r)
    out["phwc.square_residual"] = _point_norms(jhat @ jhat + identity)
    out["phwc.hermitian_residual"] = _point_norms(
        np.swapaxes(jhat, -1, -2) @ jhat - identity)
    out["phwc"] = np.hypot(out["phwc.square_residual"],
                           out["phwc.hermitian_residual"])
    out["pseudo_homothetic.mixed_sff"] = _point_norms(
        _g_norms(_pairs(sff, h, k), G2))
    out["pseudo_homothetic.structure_derivative_residual"] = _point_norms(
        _g_norms(lift(A, 4) @ (sec * dq) - sec * phi_defect, G2))
    lhs = np.swapaxes(sec * dq, -1, -2) @ lift(G1, 4) @ lift(k, 4)
    rhs = (lift(sec * np.swapaxes(o["phi"] @ h, -1, -2) @ G2, 4)
           @ _pairs(sff, h, k))
    out["pseudo_homothetic.vertical_pairing_residual"] = _point_norms(lhs - rhs)
    return out


def plain_check_values(sample, mean_angle, angle_tol) -> dict:
    """The largest of each chart_residuals entry over a Sample of one rank,
    and the lambda and mu fits from phi^2 (in the range frame) and Q^2 (in
    the horizontal frame), both formed with the metrics."""
    factor = -math.cos(mean_angle) ** 2
    per_point, squares = {}, {"lambda": [], "mu": []}
    for _, s in sample.stacks():
        for key, value in chart_residuals(s, factor, 1.0 / math.cos(mean_angle),
                                          angle_tol).items():
            per_point.setdefault(key, []).append(value)
        o, r, split = chart_operators(s), s.rank, s.split
        R, h = split.range.columns, split.horizontal.columns
        phi = np.swapaxes(R, -1, -2) @ o["G2"] @ o["J"] @ R
        q = np.swapaxes(h, -1, -2) @ o["G1"] @ o["Q"] @ h
        squares["lambda"].append(phi @ phi)
        squares["mu"].append(q @ q)
    out = {key: float(np.concatenate(v).max(initial=0.0))
           for key, v in per_point.items()}
    for name, parts in squares.items():
        square = np.concatenate(parts)
        r = square.shape[-1]
        c = float(np.trace(square, axis1=1, axis2=2).sum() / (len(square) * r))
        out[f"slant.{name}_estimate"] = c
        out[f"slant.{name}_residual"] = float(
            _point_norms(square - c * np.eye(r)).max())
    return out
