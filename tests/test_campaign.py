"""Safety nets a long unattended training campaign relies on.

A failed checkpoint write is counted and logged without stopping the run,
and ``GracefulShutdown`` defers the first SIGINT but not a second one.
"""

import logging
import signal

import numpy as np
import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _fresh_metrics():
    obs.metrics().reset()
    yield


def test_checkpoint_write_failure_counted_and_logged(tmp_path, caplog):
    from repro.optim import Adam
    from repro.pde import GenericPINN
    from repro.resilience import ChaosInjector, CheckpointManager

    model = GenericPINN(2, 2, hidden=8, n_hidden=1,
                        rng=np.random.default_rng(0))
    manager = CheckpointManager(
        tmp_path, model, Adam(model.parameters(), lr=1e-3),
        every=1, track_best=False,
        chaos=ChaosInjector(fail_writes=(0,)),
    )
    with caplog.at_level(logging.WARNING,
                         logger="repro.resilience.checkpoint"):
        assert manager.step(1, loss=1.0) is None
    assert obs.metrics().counter(
        "resilience.checkpoint.write_failures").value == 1
    assert any("checkpoint write" in rec.message and "failed" in rec.message
               for rec in caplog.records)
    # the next cadence point succeeds and is resumable
    assert manager.step(2, loss=1.0) is not None
    assert manager.resume() is not None


def test_graceful_shutdown_second_sigint_raises():
    from repro.resilience import GracefulShutdown

    with GracefulShutdown() as shutdown:
        shutdown._handler(signal.SIGINT, None)
        assert shutdown.requested
        # The operator's second Ctrl-C must not be deferred again.
        with pytest.raises(KeyboardInterrupt):
            shutdown._handler(signal.SIGINT, None)
