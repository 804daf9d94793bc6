"""End-to-end fault-injection tests: every recovery path, proven.

Each test trains a real (tiny) model with a :class:`ChaosInjector`
configured to break the run in a specific way, and asserts the
resilience layer recovers: NaN gradients roll back and finish finite,
preemption resumes bitwise-identically, a truncated checkpoint falls
back to the previous valid one.
"""

import os
import signal

import numpy as np
import pytest

from repro import obs
from repro.core import CollocationGrid, Trainer, TrainerConfig, get_case
from repro.core.models import MaxwellPINN
from repro.pde import GenericPINN, PDETrainer, PDETrainerConfig
from repro.pde.problems import SchrodingerProblem
from repro.resilience import (
    ChaosInjector,
    GracefulShutdown,
    SentinelConfig,
    truncate_file,
)


def pde_trainer(seed=0, epochs=9, **kw):
    model = GenericPINN(2, 2, hidden=16, n_hidden=2,
                        rng=np.random.default_rng(seed))
    cfg = PDETrainerConfig(epochs=epochs, eval_every=0, n_collocation=32,
                           n_data=8, resample_every=4, seed=seed, **kw)
    return PDETrainer(model, SchrodingerProblem(), cfg)


def maxwell_trainer(seed=0, epochs=8, **kw):
    model = MaxwellPINN(depth=2, hidden=12, rff_features=6,
                        rng=np.random.default_rng(seed))
    case = get_case("vacuum")
    cfg = TrainerConfig(epochs=epochs, eval_every=0, **kw)
    return Trainer(model, case.make_loss(use_energy=True),
                   CollocationGrid(n=4, t_max=1.5), config=cfg)


def params_of(trainer):
    return [p.data.copy() for p in trainer.model.parameters()]


class TestNanRecovery:
    def test_pde_nan_grad_rollback_completes_finite(self):
        trainer = pde_trainer(
            sentinel=SentinelConfig(policy="rollback"),
            chaos=ChaosInjector(nan_grad_at=(3,)),
        )
        result = trainer.train()
        assert len(result.loss) == 9
        assert all(np.isfinite(result.loss[-3:]))
        assert all(np.isfinite(p.data).all() for p in trainer.params)
        assert trainer._sentinel.stats["rollbacks"] == 1
        assert trainer._sentinel.stats["nan_events"] == 1
        value = obs.metrics().counter(
            "resilience.rollbacks", policy="rollback"
        ).value
        assert value >= 1

    def test_pde_param_corruption_caught_next_step(self):
        trainer = pde_trainer(
            sentinel=SentinelConfig(policy="rollback"),
            chaos=ChaosInjector(corrupt_params_at=(2,)),
        )
        result = trainer.train()
        assert trainer._sentinel.stats["rollbacks"] >= 1
        assert all(np.isfinite(p.data).all() for p in trainer.params)
        assert np.isfinite(result.loss[-1])

    def test_maxwell_nan_grad_skip_policy(self):
        trainer = maxwell_trainer(
            epochs=6,
            sentinel=SentinelConfig(policy="skip"),
            chaos=ChaosInjector(nan_grad_at=(2,)),
        )
        result = trainer.train()
        assert len(result.history.loss) == 6
        assert all(np.isfinite(p.data).all() for p in trainer.params)
        assert trainer._sentinel.stats["skips"] == 1

    def test_pde_without_sentinel_stops_with_diagnostic(self):
        trainer = pde_trainer(chaos=ChaosInjector(corrupt_params_at=(2,)))
        result = trainer.train()
        assert result.stop_epoch == 3
        assert "non-finite" in result.stop_reason
        assert "sentinel" in result.stop_reason
        assert len(result.loss) == 4  # stopped early, not 9 epochs


class TestPreemptAndResume:
    @pytest.mark.parametrize("compiled", [True, False],
                             ids=["compiled", "uncompiled"])
    def test_pde_resume_is_bitwise_identical(self, tmp_path, compiled):
        reference = pde_trainer(compile_step=compiled)
        reference.train()

        first = pde_trainer(compile_step=compiled,
                            checkpoint_dir=tmp_path,
                            chaos=ChaosInjector(preempt_at=4))
        r1 = first.train()
        assert r1.interrupted
        assert len(r1.loss) == 5

        second = pde_trainer(compile_step=compiled,
                             checkpoint_dir=tmp_path,
                             resume_from="auto")
        r2 = second.train()
        assert not r2.interrupted
        assert len(r2.loss) == 4  # epochs 5..8

        for a, b in zip(params_of(reference), params_of(second)):
            np.testing.assert_array_equal(a, b)

    def test_pde_resume_losses_match_uninterrupted(self, tmp_path):
        reference = pde_trainer()
        ref_result = reference.train()
        first = pde_trainer(checkpoint_dir=tmp_path,
                            chaos=ChaosInjector(preempt_at=4))
        r1 = first.train()
        second = pde_trainer(checkpoint_dir=tmp_path, resume_from="auto")
        r2 = second.train()
        assert r1.loss + r2.loss == ref_result.loss  # bitwise, not approx

    def test_maxwell_resume_is_bitwise_identical(self, tmp_path):
        reference = maxwell_trainer()
        reference.train()

        first = maxwell_trainer(checkpoint_dir=tmp_path,
                                chaos=ChaosInjector(preempt_at=3))
        r1 = first.train()
        assert r1.interrupted
        assert len(r1.history.loss) == 4

        second = maxwell_trainer(checkpoint_dir=tmp_path, resume_from="auto")
        r2 = second.train()
        assert not r2.interrupted
        for a, b in zip(params_of(reference), params_of(second)):
            np.testing.assert_array_equal(a, b)

    def test_maxwell_resume_replays_lr_schedule(self, tmp_path):
        kw = dict(lr=1e-3, lr_step=2, lr_gamma=0.5)
        reference = maxwell_trainer(**kw)
        ref = reference.train()
        first = maxwell_trainer(checkpoint_dir=tmp_path,
                                chaos=ChaosInjector(preempt_at=3), **kw)
        first.train()
        second = maxwell_trainer(checkpoint_dir=tmp_path,
                                 resume_from="auto", **kw)
        r2 = second.train()
        assert r2.history.learning_rate[-1] == ref.history.learning_rate[-1]

    def test_sigterm_stops_at_the_epoch_boundary_and_resumes_bitwise(
            self, tmp_path):
        reference = pde_trainer()
        reference.train()

        def sigterm_on_epoch_4(epoch, loss, grad_norm, grad_variance):
            if epoch == 4:
                os.kill(os.getpid(), signal.SIGTERM)

        first = pde_trainer(checkpoint_dir=tmp_path,
                            epoch_hook=sigterm_on_epoch_4)
        r1 = first.train()
        assert r1.interrupted
        assert len(r1.loss) == 5
        assert r1.early_stop_epoch is None

        second = pde_trainer(checkpoint_dir=tmp_path, resume_from="auto")
        r2 = second.train()
        assert not r2.interrupted
        assert len(r2.loss) == 4  # epochs 5..8
        for a, b in zip(params_of(reference), params_of(second)):
            np.testing.assert_array_equal(a, b)

    def test_resume_from_auto_with_empty_dir_trains_fresh(self, tmp_path):
        trainer = pde_trainer(checkpoint_dir=tmp_path, resume_from="auto")
        result = trainer.train()
        assert len(result.loss) == 9
        assert not result.interrupted


class TestCorruptionFallback:
    def test_truncated_newest_falls_back_to_previous(self, tmp_path):
        reference = pde_trainer()
        ref_result = reference.train()

        first = pde_trainer(checkpoint_dir=tmp_path, checkpoint_every=2,
                            checkpoint_best=False,
                            chaos=ChaosInjector(preempt_at=5))
        first.train()
        # Periodic archives at epochs 2, 4 (+ final at 6); kill the newest.
        newest = first._ckpt.checkpoints()[0]
        assert newest.name.endswith("00000006.npz")
        truncate_file(newest)

        second = pde_trainer(checkpoint_dir=tmp_path, checkpoint_every=2,
                             checkpoint_best=False, resume_from="auto")
        r2 = second.train()
        # Fallback resumed from epoch 4: epochs 4..8 re-run.
        assert len(r2.loss) == 5
        for a, b in zip(params_of(reference), params_of(second)):
            np.testing.assert_array_equal(a, b)


class TestLiveTrainerRestore:
    def test_compiled_restore_into_live_trainer(self, tmp_path):
        """Restoring into a trainer with a traced tape must re-trace.

        The tape executor folds non-parameter leaves at trace time and
        owns preallocated replay buffers; a checkpoint restore swaps the
        parameter arrays behind it, so continuing without invalidation
        would train against stale constants.
        """
        reference = pde_trainer(compile_step=True)
        ref_result = reference.train()

        live = pde_trainer(compile_step=True, checkpoint_dir=tmp_path)
        live.config.epochs = 5
        r_partial = live.train()
        assert live._compiled  # the tape was traced and used
        live.save_checkpoint(tmp_path / "ckpt-00000005.npz", epochs_done=5)

        # Resume *into the same live trainer object*: its compiled step,
        # optimizer moments, and sentinel state all predate the restore.
        live.config.epochs = 9
        live.config.resume_from = "auto"
        r_rest = live.train()
        assert r_partial.loss + r_rest.loss == ref_result.loss
        for a, b in zip(params_of(reference), params_of(live)):
            np.testing.assert_array_equal(a, b)


class TestGracefulShutdown:
    def test_sigterm_sets_flag_without_raising(self):
        with GracefulShutdown() as shutdown:
            os.kill(os.getpid(), signal.SIGTERM)
            assert shutdown.requested
            assert shutdown.signum == signal.SIGTERM

    def test_second_sigint_raises_keyboard_interrupt(self):
        with GracefulShutdown() as shutdown:
            os.kill(os.getpid(), signal.SIGINT)
            assert shutdown.requested
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)

    def test_second_sigterm_does_not_raise(self):
        with GracefulShutdown() as shutdown:
            os.kill(os.getpid(), signal.SIGTERM)
            os.kill(os.getpid(), signal.SIGTERM)  # idempotent, no raise
            assert shutdown.requested
            assert shutdown.signum == signal.SIGTERM

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before
