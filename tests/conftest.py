import numpy as np
import pytest

from slantmap.catalog import load_catalog
from slantmap.charts import ChartManifold
from slantmap.maps import MapSpec
from oracles import sample_points_by_point


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
