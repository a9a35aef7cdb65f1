"""Independent finite-difference oracles used to pin expected values.

Everything here differentiates plain evaluations with central differences,
so agreement with the library's exact derivatives is a real two-route check.
The curve-derivative oracles differentiate a section by rebuilding it off
the base point; only their Christoffel correction comes from the frame.
"""

import numpy as np

from slantmap.expressions import eval_value
from slantmap.maps import differential, map_point

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


def fd_pullback_derivative(frame, X, section, h=FD_STEP):
    """Pullback-connection derivative of a target-vector section along
    t -> p + tX: centered difference plus the target Christoffel term."""
    dv = _centered_curve_difference(frame.point, X, section, h)
    fx = frame.pushforward(X)
    return dv + np.einsum("gab,a,b->g", frame.gamma_target, fx,
                          section(frame.point))


def fd_source_derivative(frame, X, section, h=FD_STEP):
    """Source-connection derivative of a source-vector section along
    t -> p + tX: centered difference plus the source Christoffel term."""
    dv = _centered_curve_difference(frame.point, X, section, h)
    return dv + np.einsum("kij,i,j->k", frame.gamma_source,
                          np.asarray(X, dtype=float), section(frame.point))
