"""Shared fixtures and hypothesis settings for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property-based tests fast and deterministic on CI boxes.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running test that bounds its own subprocess with a "
        "timeout",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
