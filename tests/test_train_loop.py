"""The one training loop shared by ``Trainer`` and ``PDETrainer``.

Both trainers run :class:`repro.core.loop.TrainLoop`'s epoch and
resilience path; these tests pin the behaviour that used to drift between
their private copies.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.core import (CollocationGrid, MaxwellQPINN, Trainer,
                        TrainerConfig, get_case)
from repro.core.loop import TrainLoop
from repro.core.models import MaxwellPINN
from repro.pde import GenericPINN, PDETrainer, PDETrainerConfig
from repro.pde.problems import SchrodingerProblem
from repro.resilience import ChaosInjector, SentinelConfig


def maxwell_trainer(**kw):
    model = MaxwellPINN(depth=2, hidden=8, rff_features=4,
                        rng=np.random.default_rng(0))
    cfg = TrainerConfig(epochs=kw.pop("epochs", 5), eval_every=0,
                        bh_n_space=4, bh_n_times=3, **kw)
    return Trainer(model, get_case("vacuum").make_loss(use_energy=True),
                   CollocationGrid(n=4, t_max=1.5), config=cfg)


def pde_trainer(**kw):
    model = GenericPINN(2, 2, hidden=8, n_hidden=2,
                        rng=np.random.default_rng(0))
    cfg = PDETrainerConfig(epochs=kw.pop("epochs", 5), eval_every=0,
                           n_collocation=16, n_data=8, resample_every=2,
                           seed=0, **kw)
    return PDETrainer(model, SchrodingerProblem(), cfg)


TRAINERS = pytest.mark.parametrize("make", [maxwell_trainer, pde_trainer],
                                   ids=["maxwell", "pde"])


def test_both_trainers_share_one_loop():
    shared = ("train", "_setup_resilience", "save_checkpoint", "_grad_stats",
              "_epoch")
    for cls in (Trainer, PDETrainer):
        assert issubclass(cls, TrainLoop)
        assert not set(shared) & set(cls.__dict__)
    # Tracers time these by wrapping Trainer's own class attributes.
    assert {"__init__", "_entanglement"} <= set(Trainer.__dict__)


def test_seconds_per_epoch_counts_only_epochs_that_ran():
    """An early stop skips the L-BFGS phase, so it must not dilute the
    per-epoch time with L-BFGS epochs that never ran."""

    def hook(epoch, loss, grad_norm, grad_variance):
        time.sleep(0.2)
        return "stop"

    result = maxwell_trainer(lbfgs_epochs=3, epoch_hook=hook).train()
    hist = result.history
    assert hist.early_stop_epoch == 0 and len(hist.loss) == 1
    assert hist.seconds_per_epoch >= 0.2


@TRAINERS
def test_grad_stats_of_a_skipped_step_are_nan(make):
    """Statistics are taken before the sentinel drops the gradients: a
    poisoned step reports NaN, never the 0.0 of a vanished gradient."""
    seen = {}

    def hook(epoch, loss, grad_norm, grad_variance):
        seen[epoch] = (grad_norm, grad_variance)

    trainer = make(sentinel=SentinelConfig(policy="skip"),
                   chaos=ChaosInjector(nan_grad_at=(2,)), epoch_hook=hook)
    trainer.train()
    assert trainer._sentinel.stats["skips"] == 1
    assert np.isnan(seen[2]).all()
    assert all(np.isfinite(seen[e]).all() and seen[e][0] > 0
               for e in seen if e != 2)


@TRAINERS
def test_non_finite_gradient_stops_without_a_sentinel(make):
    """A NaN gradient under a finite loss (``acos`` at ±1) must not reach
    Adam: the run stops at that epoch with finite parameters."""
    trainer = make(chaos=ChaosInjector(nan_grad_at=(2,)))
    result = trainer.train()
    record = getattr(result, "history", result)
    assert record.stop_epoch == 2
    assert "gradient norm went non-finite" in record.stop_reason
    assert all(np.isfinite(p.data).all() for p in trainer.params)


def test_observed_scope_tree_has_one_root(tmp_path):
    """The post-training diagnostics (the BH indicator runs the quantum
    plan) are timed inside ``train``, not as a second root."""
    model = MaxwellQPINN(hidden=8, rff_features=4, n_qubits=3, n_layers=1,
                         rng=np.random.default_rng(0))
    cfg = TrainerConfig(epochs=2, eval_every=0, bh_n_space=4, bh_n_times=3)
    path = tmp_path / "run.jsonl"
    with obs.observe(str(path), profile=True):
        Trainer(model, get_case("vacuum").make_loss(use_energy=True),
                CollocationGrid(n=3, t_max=1.5), config=cfg).train()
    snapshot = obs.load_events(str(path))[-1]["snapshot"]
    names = {e["name"] for e in snapshot if e["kind"] == "scope"}
    assert "train/finalize" in names
    assert all(name.split("/")[0] == "train" for name in names), names


def test_pde_problem_without_data_arrays_rejected_at_construction():
    class ResidualOnly:
        name = "residual-only"

        def sample(self, n, rng):
            return (rng.uniform(size=(n, 1)),)

        def residual_loss(self, model, x):  # pragma: no cover - never runs
            raise AssertionError

    model = GenericPINN(1, 1, hidden=4, n_hidden=1,
                        rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="data_arrays/data_terms"):
        PDETrainer(model, ResidualOnly())
