"""Machine-speed calibration of the benchmark's timings.

The benchmark is meant for small shared machines whose speed drifts with
the load of their neighbours.  On the 2-vCPU machine it was defined on, the
same ``point_frame`` call took 0.54 ms in one minute and 1.2-1.3 ms for the
next two, with the process on the CPU the whole time (CPU time equalled wall
time), so neither longer runs nor CPU time make raw wall times repeatable.

Timings are therefore reported in calibrated seconds: a wall time multiplied
by ``NOMINAL_S / k``, where ``k`` is the mean time of a fixed reference
kernel sampled just before, during (at most every ``INTERVAL_S``) and just
after the timed work.  The kernel is a miniature of slantmap's per-point
pipeline: forward jets (value, gradient, Hessian) of a few expressions
evaluated by recursion over a tree, then a symmetric eigenvalue check, a
Cholesky factorisation, a triangular solve and an SVD of 3x3 matrices.  It
is part of the benchmark, not of the package, so a change to slantmap moves
calibrated times and a change of machine speed does not.  Timed alternately
with ``point_frame`` calls for 6 s in each of six processes, while raw times
varied by 1.6x, the ratio of the two stayed within 1.5%.  On the reference
machine at full speed a calibrated second is about a wall-clock second.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from array import array

import numpy as np

# Median kernel time on the reference machine (2 vCPUs, Python 3.11,
# numpy 2.4, OpenBLAS, one BLAS thread) at full speed.
NOMINAL_S = 1.5e-4
# Start-up is slowed by other causes than computation (process creation,
# page faults), which the kernel does not follow: on the reference machine
# set-up took 0.16-0.30 s from run to run while the kernel moved little.  Its
# reference is a fresh interpreter that only imports numpy, timed just before
# each set-up; this is its time on the reference machine at full speed.
NOMINAL_START_S = 0.105
INTERVAL_S = 0.01    # shortest time between kernel samples
clock = time.perf_counter


class _Jet:
    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __add__(self, o):
        return _Jet(self.v + o.v, self.g + o.g, self.h + o.h)

    def __mul__(self, o):
        cross = np.outer(self.g, o.g)
        return _Jet(self.v * o.v, self.v * o.g + o.v * self.g,
                    self.v * o.h + o.v * self.h + cross + cross.T)

    def chain(self, f, f1, f2):
        return _Jet(f, f1 * self.g, f1 * self.h + f2 * np.outer(self.g, self.g))


def _jet(node, p):
    op = node[0]
    n = p.shape[0]
    if op == "x":
        g = np.zeros(n)
        g[node[1]] = 1.0
        return _Jet(float(p[node[1]]), g, np.zeros((n, n)))
    if op == "c":
        return _Jet(node[1], np.zeros(n), np.zeros((n, n)))
    if op == "+":
        return _jet(node[1], p) + _jet(node[2], p)
    if op == "*":
        return _jet(node[1], p) * _jet(node[2], p)
    u = _jet(node[1], p)
    if op == "exp":
        e = math.exp(u.v)
        return u.chain(e, e, e)
    s, c = math.sin(u.v), math.cos(u.v)  # "sin"
    return u.chain(s, c, -s)


_X1, _X2, _X3 = ("x", 0), ("x", 1), ("x", 2)
_E2 = ("exp", ("*", ("c", 2.0), _X1))
_EXPRESSIONS = (
    ("+", ("c", 1.0), ("*", _E2, ("*", _X2, _X2))), ("*", _E2, _X2), _E2,
    ("*", _X2, ("c", 0.7071)), ("sin", ("+", _X1, _X3)), ("*", ("sin", _X1), _X2),
)
_POINT = np.array([0.3, -0.2, 0.5])


def kernel() -> float:
    jets = [_jet(e, _POINT) for e in _EXPRESSIONS]
    G = np.eye(3) + 0.1 * np.array([[j.v for j in jets[:3]]] * 3)
    G = 0.5 * (G + G.T)
    np.linalg.eigvalsh(G)
    L = np.linalg.cholesky(G)
    M = np.linalg.solve(L, np.array([j.g for j in jets[3:]]).T).T
    U, s, _ = np.linalg.svd(M)
    H = np.array([j.h for j in jets])
    return float(np.einsum("gij,i,j->", H, s, s)) + float(U[0, 0])


class Calibrator:
    """Kernel time samples over a run, and calibrated times of timed work.

    The caller takes samples with ``sample_if_due`` at points of its own
    choosing, between operations and inside them, so a long operation is
    calibrated by the machine speed during it; the time of samples taken
    inside an operation is subtracted from it.  (Samples taken from a timer
    signal tracked the work worse: in 2-second windows, work over kernel
    varied by 8% against 3% for samples taken between pieces of work.)
    """

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.kernel = array("d")

    def sample(self) -> None:
        start = clock()
        kernel()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self.kernel.append(end - start)

    def sample_if_due(self) -> None:
        if not self.ends or clock() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def _window(self, start: float, end: float) -> tuple:
        """Indices of the last sample before ``start`` and the first after
        ``end`` (clock readings), which must exist."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        if before < 0 or after >= len(self.starts):
            raise ValueError("work must lie between two calibration samples")
        return before, after

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_S / k`` for work timed from ``start`` to ``end``, with
        ``k`` the mean kernel time over the samples from just before to just
        after it; the mean, because the work's wall time adds up the
        machine's slowness over its duration."""
        before, after = self._window(start, end)
        return NOMINAL_S / statistics.fmean(self.kernel[before:after + 1])

    def calibrate(self, start: float, end: float) -> float:
        """Calibrated seconds of work timed from ``start`` to ``end``, net of
        the samples taken inside it."""
        before, after = self._window(start, end)
        busy = sum(self.ends[i] - self.starts[i] for i in range(before + 1, after))
        return (end - start - busy) * self.factor(start, end)

    def slowdown(self) -> float:
        """Median kernel time over the nominal one: 1.0 at full speed."""
        return statistics.median(self.kernel) / NOMINAL_S
