"""The one training loop behind :class:`repro.core.Trainer` and
:class:`repro.pde.PDETrainer`.

:class:`TrainLoop` owns the epoch (step → chaos → clip → gradient
statistics → sentinel → Adam → curriculum → scheduler → record →
evaluation → telemetry → ``epoch_hook``) of plain and observed runs,
and the checkpoint, resume and signal wiring around it.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import obs
from ..autodiff.tape import TapeFallback, compile_step
from ..optim import Adam
from ..resilience import (
    CheckpointManager,
    DivergenceSentinel,
    GracefulShutdown,
    SimulatedPreemption,
)

__all__ = ["LoopConfig", "TrainLoop", "phase"]


@dataclass
class LoopConfig:
    """Config fields shared by every trainer (each sets its own defaults)."""

    epochs: int = 200
    lr: float = 1e-3
    eval_every: int = 25
    #: capture the training step with :mod:`repro.autodiff.tape` on the
    #: first epoch and replay it thereafter; bitwise identical to
    #: define-by-run, with automatic fallback on unsupported ops.
    compile_step: bool = True
    #: tape-replay precision tier: ``"float64"`` (default, bitwise) or
    #: ``"float32"`` (kernels run in float32, outputs promoted back to
    #: float64, validated to :func:`repro.lower.budget.tape_budget`).
    #: Ignored when ``compile_step`` is off or the step falls back to
    #: define-by-run, which always runs float64.
    precision: str = "float64"
    #: per-step divergence sentinel (:class:`repro.resilience.SentinelConfig`);
    #: ``None`` keeps the hot loop entirely check-free.
    sentinel: "object | None" = None
    #: directory for periodic/best checkpoints (``None`` disables).  While
    #: checkpointing, SIGINT/SIGTERM finish the current step, write a
    #: final checkpoint, and return cleanly.
    checkpoint_dir: "str | Path | None" = None
    #: write a periodic checkpoint every N epochs (0 = only best/final).
    checkpoint_every: int = 0
    #: retention: number of periodic checkpoints kept on disk.
    checkpoint_keep: int = 3
    #: additionally refresh ``ckpt-best.npz`` whenever the loss improves.
    checkpoint_best: bool = True
    #: resume source: a checkpoint path, or ``"auto"`` for the newest
    #: valid archive in ``checkpoint_dir``.  Restores model, optimiser,
    #: scheduler, RNG bit-state and the trainer's own extras (curriculum
    #: state, the current collocation sample), so the resumed run
    #: reproduces the uninterrupted one bitwise.
    resume_from: "str | Path | None" = None
    #: test-only fault injection (:class:`repro.resilience.ChaosInjector`).
    chaos: "object | None" = None
    #: per-epoch observer ``hook(epoch, loss, grad_norm, grad_variance)``
    #: called at the end of every epoch; a truthy return stops training
    #: cleanly after the epoch's checkpoint cadence (a returned string is
    #: recorded as the stop reason).  ``perfbench`` times epochs
    #: with it.
    epoch_hook: "object | None" = None


def phase(recorder, name: str):
    """``obs.scope(name)`` while a recorder is attached, else a no-op."""
    return obs.scope(name) if recorder is not None else nullcontext()


class TrainLoop:
    """Epoch and resilience machinery shared by the trainers.

    Subclasses define ``_name`` (the obs scope and compiled-step label),
    ``_step``, ``_traceable``, ``_new_record``, ``_finalize``,
    ``_evaluate_epoch`` (returns the relative L2 error or ``None``),
    ``_checkpoint_arrays`` and ``_restore_arrays``, and may override the
    no-op hooks below.  ``_step(epoch, recorder)`` evaluates the loss and
    its gradients into ``p.grad`` and returns floats, so the
    define-by-run graph is freed before the diagnostics;
    ``_traceable()`` is the pure function the tape captures for it; it
    raises :class:`~repro.autodiff.tape.TapeFallback` naming the reason
    when the step must stay define-by-run (see :meth:`cache_info`).
    """

    def __init__(self, model, config, rng: np.random.Generator,
                 scheduler=None, curriculum=None):
        self.model = model
        self.config = config
        #: the run's random stream; checkpoints capture its bit state
        self.rng = rng
        self.params = model.parameters()
        self.optimizer = Adam(self.params, lr=config.lr)
        self.scheduler = None if scheduler is None else scheduler(self.optimizer)
        self._curriculum = curriculum
        self._chaos = config.chaos
        self._sentinel = None
        if config.sentinel is not None:
            self._sentinel = DivergenceSentinel(
                config.sentinel, self.params, self.optimizer, self.scheduler
            )
        #: the CompiledStep (``None`` unbuilt, ``False`` define-by-run)
        self._compiled = None
        #: why ``_traceable`` declined the step, if it did
        self._declined = None
        self._ckpt = None

    # ------------------------------------------------------------------
    # Subclass hooks with a default
    # ------------------------------------------------------------------
    def _sample(self, epoch: int) -> None:
        """Draw this epoch's inputs (default: none)."""

    def _clip_gradients(self) -> None:
        """Clip the gradients in place (default: no clipping)."""

    def _record(self, rec, comps: dict, stats: tuple) -> dict:
        """Record per-epoch fields beyond the loss; returns extra telemetry."""
        return {}

    def _finetune(self, rec) -> None:
        """Post-Adam phase after a clean run (one ``rec.loss`` per epoch)."""

    # ------------------------------------------------------------------
    # Compiled step and gradients
    # ------------------------------------------------------------------
    def _compiled_step(self):
        """The cached compiled step, or ``None`` to run define-by-run."""
        if self._compiled is None:
            cfg = self.config
            step = False
            if cfg.compile_step:
                try:
                    step = compile_step(self._traceable(), self.params,
                                        precision=cfg.precision,
                                        name=self._name)
                except TapeFallback as exc:
                    # Counted like a tape fallback: only while profiling.
                    self._declined = str(exc)
                    if obs.is_profiling():
                        obs.metrics().counter(
                            "autodiff.tape.fallbacks", step=self._name
                        ).inc()
            self._compiled = step
        return self._compiled or None

    def cache_info(self) -> dict:
        """The compiled step's ``cache_info()``.

        A step that runs define-by-run reports ``{"step", "disabled"}``:
        ``disabled`` is the reason ``_traceable`` declined it, under the
        key a tape fallback uses, or ``None`` (``compile_step`` off, or
        no step run yet).
        """
        if self._compiled:
            return self._compiled.cache_info()
        return {"step": self._name, "disabled": self._declined}

    def _replay(self, step, *arrays) -> tuple[float, dict]:
        """Run a compiled step into ``p.grad``; returns loss, components."""
        loss_value, grads, aux = step(*arrays)
        # Replay buffers are executor-owned: copy before Adam mutates.
        for p, g in zip(self.params, grads):
            p.grad = g.copy()
        return loss_value, {k: float(v) for k, v in aux.items()}

    def _grad_stats(self) -> tuple[float, float]:
        """Global gradient norm and variance (``0.0`` without gradients)."""
        flat = [p.grad.ravel() for p in self.params if p.grad is not None]
        if not flat:
            return 0.0, 0.0
        g = np.concatenate(flat)
        return float(np.linalg.norm(g)), float(g.var())

    # ------------------------------------------------------------------
    # Resilience wiring
    # ------------------------------------------------------------------
    def save_checkpoint(self, path, epochs_done: int = 0) -> Path:
        """Write a full resumable checkpoint of this trainer's state."""
        from .checkpoint import save_checkpoint

        return save_checkpoint(
            path, self.model, self.optimizer, epoch=epochs_done,
            scheduler=self.scheduler, rng=self.rng,
            extra_arrays=self._checkpoint_arrays(),
        )

    def _setup_resilience(self) -> None:
        """Build the checkpoint manager and apply ``resume_from``."""
        cfg = self.config
        self._ckpt = None
        self._start_epoch = 0
        if cfg.checkpoint_dir is not None:
            self._ckpt = CheckpointManager(
                cfg.checkpoint_dir, self.model, self.optimizer,
                scheduler=self.scheduler, rng=self.rng,
                every=cfg.checkpoint_every, keep=cfg.checkpoint_keep,
                track_best=cfg.checkpoint_best, chaos=self._chaos,
            )
        if not cfg.resume_from:
            return
        if self._ckpt is not None:
            pin = (None if str(cfg.resume_from) in ("auto", "latest")
                   else cfg.resume_from)
            info = self._ckpt.resume(pin)
        else:
            from .checkpoint import load_checkpoint

            info = load_checkpoint(
                cfg.resume_from, self.model, self.optimizer,
                scheduler=self.scheduler, rng=self.rng,
            )
        if info is None:
            return  # nothing on disk yet: a fresh run with checkpointing
        self._restore_arrays(info["arrays"])
        self._start_epoch = int(info["epoch"])
        # A restore swaps parameter/buffer arrays behind any compiled
        # step and any sentinel snapshot: both must drop cached state.
        if self._compiled:
            self._compiled.invalidate()
        if self._sentinel is not None:
            self._sentinel.refresh()

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def train(self):
        """Run the training loop and return the result record."""
        cfg = self.config
        rec = self._new_record()
        self._setup_resilience()
        start = time.perf_counter()
        # Observability is opt-in: outside obs.observe()/obs.profile() the
        # epoch loop takes the plain path and performs no obs work at all.
        recorder = obs.get_recorder()
        interrupted = False
        epoch = self._start_epoch

        def final_checkpoint() -> None:
            if self._ckpt is not None:
                self._ckpt.save(epoch + 1, loss=rec.loss[-1],
                                arrays=self._checkpoint_arrays)

        train_scope = (nullcontext() if recorder is None
                       else obs.scope("train", problem=self._name))
        with train_scope:
            with ExitStack() as stack:
                # Autodiff graphs are acyclic and freed by reference
                # counting; the cyclic collector only adds multi-second
                # pauses scanning the live graph, so it is paused for the
                # epochs.
                if gc.isenabled():
                    gc.disable()
                    stack.callback(gc.enable)
                shutdown = None
                if self._ckpt is not None:
                    shutdown = stack.enter_context(GracefulShutdown())
                try:
                    for epoch in range(self._start_epoch, cfg.epochs):
                        self._epoch(epoch, rec, recorder)
                        if self._ckpt is not None:
                            self._ckpt.step(epoch + 1, rec.loss[-1],
                                            arrays=self._checkpoint_arrays)
                        if shutdown is not None and shutdown.requested:
                            interrupted = True
                            final_checkpoint()
                            break
                        if self._stopped(rec):
                            break
                except SimulatedPreemption:
                    # The chaos injector preempts at a step boundary: the
                    # epoch's state is consistent, so a final checkpoint
                    # makes the run resumable exactly where it died.
                    interrupted = True
                    final_checkpoint()
                if not (interrupted or self._stopped(rec)):
                    self._finetune(rec)
            # Every epoch that ran in this call, Adam and fine-tuning
            # alike, appended exactly one loss.
            elapsed = time.perf_counter() - start
            with phase(recorder, "finalize"):
                return self._finalize(rec, interrupted,
                                      elapsed / max(1, len(rec.loss)))

    def _epoch(self, epoch: int, rec, recorder=None) -> None:
        """One plain or observed epoch."""
        cfg = self.config
        self._sample(epoch)
        self.optimizer.zero_grad()
        loss_value, comps = self._step(epoch, recorder)
        stats = self._update(epoch, loss_value, rec)
        rec.loss.append(loss_value)
        extra = self._record(rec, comps, stats)
        l2 = None
        if cfg.eval_every and (
            epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1
        ):
            with phase(recorder, "evaluate"):
                l2 = self._evaluate_epoch(epoch, rec)
            if l2 is not None:
                rec.l2_epochs.append(epoch)
                rec.l2_error.append(l2)
        if recorder is not None:
            recorder.emit(
                "epoch", epoch=epoch, loss=loss_value, components=comps,
                grad_norm=stats[0], grad_variance=stats[1], **extra,
                l2_error=l2,
            )
        if cfg.epoch_hook is not None:
            verdict = cfg.epoch_hook(epoch, loss_value, *stats)
            if verdict:
                rec.early_stop_epoch = epoch
                rec.early_stop_reason = (
                    verdict if isinstance(verdict, str) else "epoch_hook"
                )
        if self._chaos is not None:
            self._chaos.end_step(epoch)

    @staticmethod
    def _stopped(rec) -> bool:
        """A non-finite loss or gradient, or ``epoch_hook``, ended training."""
        return rec.stop_reason is not None or rec.early_stop_epoch is not None

    def _update(self, epoch: int, loss_value: float, rec) -> tuple:
        """Apply the step's gradients; returns their (norm, variance)."""
        chaos = self._chaos
        if chaos is not None:
            chaos.grads(epoch, self.params)
        self._clip_gradients()
        # Taken before the guard, which drops a skipped step's gradients.
        stats = self._grad_stats()
        if self._sentinel is not None:
            apply = self._sentinel.observe(epoch, loss_value)
        else:
            # No sentinel: stop immediately instead of silently training
            # on garbage for the remaining epochs.  A finite loss can
            # still carry a non-finite gradient (``acos`` at ±1).
            apply = math.isfinite(loss_value) and math.isfinite(stats[0])
            if not apply:
                what = ("loss" if not math.isfinite(loss_value)
                        else "gradient norm")
                rec.stop_epoch = epoch
                rec.stop_reason = (
                    f"{what} went non-finite at epoch {epoch} "
                    f"(loss={loss_value!r}, grad_norm={stats[0]!r}); "
                    f"configure {type(self.config).__name__}.sentinel for "
                    f"skip/rollback recovery, or lower the learning rate"
                )
        if apply:
            self.optimizer.step()
            if self._curriculum is not None:
                self._curriculum.update(loss_value)
        if self.scheduler is not None:
            self.scheduler.step()
        if chaos is not None:
            chaos.params(epoch, self.params)
        return stats
