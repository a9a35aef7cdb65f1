"""Properties over generated varying maps: polynomial and trigonometric
components, some of them affine, over constant and varying charts, with and
without J, some of varying rank.  Every frame that a build path hands out
(a stack of a block, of a rank group, or the one kept stack of a constant
frame, and ``point_frame``'s kept row) has bases B1 and B2 orthonormal under
the metrics that ``InnerProduct`` accepted: the split relies on that one
rule for each metric and checks no basis itself.  And each fast route,
switched off at its one predicate, writes the general route's report and
--points bytes."""

import contextlib

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

import slantmap.maps
from slantmap.loader import map_spec_from_json
from slantmap.maps import Sample, point_frame
from slantmap.report import sample_points
from test_constant_frame import FAST_ROUTES, _outputs
from test_properties import PROPERTY_SETTINGS


@st.composite
def _map_documents(draw):
    """A slantmap/1 document of a map from R^n (n in 1..3) into R^m (m in
    1..4, even where the target has the standard J), with its sample of 1 to
    12 points.  Each component is a constant plus linear terms, in some maps
    plus products, cubes, sines and cosines; each chart's metric is a random
    SPD constant, either I + 0.5 B^T B or the near-singular Q diag(1, ...,
    1, 10^-x) Q^T with x from 3 to 9, around the limit of ``InnerProduct``,
    or that plus 0.3 sin^2 on a diagonal entry and 0.2 cos on a pair, which
    keeps the first kind SPD.  In some maps x_n enters only through
    c pow(x_n, 9), so that the rank drops where |x_n| is below about
    0.08."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    j = draw(st.booleans())
    m = 2 * draw(st.integers(1, 2)) if j else draw(st.integers(1, 4))
    affine = draw(st.booleans())
    pinched = n > 1 and not affine and draw(st.booleans())
    free = n - 1 if pinched else n  # the variables of the other terms

    def c():
        return f"{rng.uniform(-2.0, 2.0):.3f}"

    def x():
        return f"x{rng.integers(1, free + 1)}"

    curved = (lambda: f"{c()}*{x()}*{x()}", lambda: f"{c()}*pow({x()}, 3)",
              lambda: f"{c()}*sin({x()})", lambda: f"{c()}*cos({c()}*{x()} + {x()})")
    components = []
    for _ in range(m):
        terms = [c()] + [f"{c()}*{x()}" for _ in range(rng.integers(1, 3))]
        if not affine:
            terms += [curved[rng.integers(len(curved))]()
                      for _ in range(rng.integers(0, 3))]
        components.append(" + ".join(terms))
    if pinched:
        components[rng.integers(m)] += f" + {c()}*pow(x{n}, 9)"

    def metric(dim):
        if draw(st.booleans()):
            B = rng.standard_normal((dim, dim))
            G = np.eye(dim) + 0.5 * B.T @ B
        else:  # near singular: Q diag(1, ..., 1, 10^-x) Q^T, x up to 9
            Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            G = Q @ np.diag([1.0] * (dim - 1) + [10 ** -rng.uniform(3, 9)]) @ Q.T
            G = 0.5 * G + 0.5 * G.T
        entries = [[repr(float(G[i, k])) for k in range(dim)] for i in range(dim)]
        if draw(st.booleans()):
            i, k, v = rng.integers(0, dim, 3)
            entries[i][i] += f" + 0.3*pow(sin(x{v + 1}), 2)"
            if i != k:
                entries[i][k] += f" + 0.2*cos(x{v + 1})"
                entries[k][i] += f" + 0.2*cos(x{v + 1})"
        return entries

    target = {"dim": m, "metric": metric(m)}
    if j:
        target["J"] = [["0"] * m for _ in range(m)]
        for i in range(0, m, 2):
            target["J"][i][i + 1], target["J"][i + 1][i] = "-1", "1"
    return {"schema": "slantmap/1", "source": {"dim": n, "metric": metric(n)},
            "target": target, "components": components,
            "sampling": {"points": draw(st.integers(1, 12)),
                         "seed": draw(st.integers(0, 2**16))}}


def _points(loaded):
    return sample_points(loaded.spec.box, loaded.settings.points,
                         loaded.settings.seed)


def _assert_orthonormal(frame):
    """B1^T G1 B1 and B2^T G2 B2 equal I within 1e-10, entry by entry, at
    every point of a stack or at the point of a frame."""
    for metric, basis in ((frame.g_source, frame.source_basis),
                          (frame.g_target, frame.target_basis)):
        gram = np.swapaxes(basis, -1, -2) @ metric.matrix @ basis
        assert np.abs(gram - np.eye(basis.shape[-1])).max(initial=0.0) <= 1e-10


@PROPERTY_SETTINGS
@given(_map_documents(), st.integers(1, 4))
def test_frames_are_orthonormal_on_every_build_path(doc, block):
    # blocks of 1 to 4 points, so that most samples span two blocks or more
    loaded = map_spec_from_json(doc)
    points = _points(loaded)
    stacks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slantmap.maps, "FRAME_BLOCK", block)
        with _unless_rejected():
            stacks.extend(stack for _, stack in Sample(loaded.spec, points).stacks())
    for stack in stacks:
        _assert_orthonormal(stack)
    for p in points:
        with _unless_rejected():
            _assert_orthonormal(point_frame(loaded.spec, p))


@contextlib.contextmanager
def _unless_rejected():
    """Stop the block where a metric is rejected, as ``InnerProduct`` may
    reject a near-singular one."""
    try:
        yield
    except ValueError as exc:
        assert str(exc).startswith("metric is not positive definite at "), exc


def _ranks(loaded) -> set:
    ranks = set()
    with _unless_rejected():
        ranks.update(stack.rank for _, stack in
                     Sample(loaded.spec, _points(loaded)).stacks())
    return ranks


def _curved(spec) -> bool:
    return not any(c.affine for c in spec.components)


# what each build path needs of a generated map
PATHS = {
    "constant frame": lambda loaded: loaded.spec.constant_frame,
    "varying source and target charts": lambda loaded: not (
        loaded.spec.source.constant or loaded.spec.target.constant),
    "affine components into a varying target": lambda loaded: (
        not loaded.spec.target.constant
        and all(c.affine for c in loaded.spec.components)),
    "curved components into a constant target with J": lambda loaded: (
        loaded.spec.target.constant and _curved(loaded.spec)
        and loaded.spec.target.complex_structure is not None),
    "curved components with no J": lambda loaded: (
        _curved(loaded.spec) and loaded.spec.target.complex_structure is None),
    "varying rank": lambda loaded: len(_ranks(loaded)) > 1,
}


@pytest.mark.parametrize("path", PATHS)
def test_generated_maps_reach_every_build_path(path):
    # the properties here are not vacuous: the generator draws each path
    find(_map_documents(), lambda doc: PATHS[path](map_spec_from_json(doc)),
         settings=settings(database=None, derandomize=True, max_examples=2000))


@PROPERTY_SETTINGS
@given(_map_documents(), st.sets(st.sampled_from(sorted(FAST_ROUTES)), min_size=1))
def test_fast_routes_write_the_general_routes_bytes_on_generated_maps(doc,
                                                                      switches):
    # the routes switched off, as the corpus test switches them, over a map
    # parsed anew under the switches, since formulas keep a plan and a gradient
    def outputs(switches):
        with pytest.MonkeyPatch.context() as patch:
            for switch in switches:
                patch.setattr(*FAST_ROUTES[switch])
            return _outputs(map_spec_from_json(doc))

    assert outputs(switches) == outputs(())
