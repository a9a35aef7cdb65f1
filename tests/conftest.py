import numpy as np
import pytest

from slantmap.catalog import load_catalog
from slantmap.charts import ChartManifold
from slantmap.maps import MapSpec
from oracles import sample_points_by_point


@pytest.fixture
def numpy1_solve(monkeypatch):
    """np.linalg.solve under numpy 1.x's broadcasting rule, where b is a
    stack of vectors when it has one axis fewer than a (numpy 2 reads only a
    1-d b as a vector).  Yields a list with one entry per call: whether
    numpy 2 reads its b otherwise."""
    solve = np.linalg.solve
    calls = []

    def solve_1x(a, b):
        a, b = np.asarray(a), np.asarray(b)
        vectors = b.ndim == a.ndim - 1
        calls.append(vectors != (b.ndim == 1))
        if vectors:
            return solve(a, b[..., None])[..., 0]
        if b.ndim < 2:
            raise ValueError("numpy 1.x needs b with at least 2 dimensions here")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve_1x)
    yield calls


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240)


@pytest.fixture(scope="session")
def sample_box():
    return sample_points_by_point


@pytest.fixture(scope="session")
def example4():
    return load_catalog("example4")


@pytest.fixture(scope="session")
def twisted_submersion():
    """Riemannian submersion with a connection-twisted source metric:
    fibers stay totally geodesic while the horizontal distribution does not."""
    metric = [["1 + pow(x2,2)", "0", "x2"], ["0", "1", "0"], ["x2", "0", "1"]]
    source = ChartManifold.from_strings(3, metric)
    target = ChartManifold.euclidean(2, [["0", "-1"], ["1", "0"]])
    return MapSpec.create(source, target, ["x1", "x2"], name="twisted")
