import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from klgeo import FiniteDistribution
from klgeo.rng import SeededRng

# The suite's property-test settings: reproducible, and nothing kept between runs.
FUZZ = settings(max_examples=34, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def random_simplex(rng: SeededRng, n: int) -> np.ndarray:
    w = -np.log(1.0 - rng.uniform(n))
    return w / w.sum()


def random_dist(rng: SeededRng, outcomes) -> FiniteDistribution:
    return FiniteDistribution(outcomes, random_simplex(rng, len(outcomes)))


@pytest.fixture
def rng():
    return SeededRng(12345)
