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

#: ceiling for one @pytest.mark.slow test when pytest-timeout is present
#: (CI installs it); locally the campaign's heartbeat timeout is what
#: keeps a dead worker from hanging the suite.
SLOW_TEST_TIMEOUT_S = 300


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: multi-process / long-running test (CI applies a "
        f"{SLOW_TEST_TIMEOUT_S}s timeout via pytest-timeout)",
    )


def pytest_collection_modifyitems(config, items):
    if not config.pluginmanager.hasplugin("timeout"):
        return
    for item in items:
        if "slow" in item.keywords and "timeout" not in item.keywords:
            item.add_marker(pytest.mark.timeout(SLOW_TEST_TIMEOUT_S))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
