import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from weightlab import build_space, generate

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def two_point():
    """Two points at distance 1, uniform measure."""
    return build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), "explicit-matrix",
                       [0.5, 0.5])


@pytest.fixture
def three_path():
    """Collinear points 0, 1, 2 (distances 1, 1, 2), uniform measure."""
    return build_space(np.array([0.0, 1.0, 2.0]), "euclidean", np.full(3, 1 / 3))


@pytest.fixture
def one_point():
    return build_space(np.zeros((1, 1)), "explicit-matrix", [1.0])


@pytest.fixture(scope="session")
def three_block_grid():
    """300-point linf grid: the index streams its centers in three uneven blocks."""
    space = generate("grid", {"nx": 15, "ny": 20, "metric": "linf"}, seed=2)
    sizes = [rows.stop - rows.start for rows in space.ball_family.row_blocks()]
    assert len(sizes) >= 3 and sizes[-1] < sizes[0]
    return space
