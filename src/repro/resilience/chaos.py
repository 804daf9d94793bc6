"""Chaos-injection harness: deterministic fault injection for trainers.

Production-length runs die in ways unit tests rarely exercise: a NaN
gradient thousands of epochs in, parameters corrupted by a bad kernel,
the process preempted mid-run, a checkpoint write failing halfway.  The
:class:`ChaosInjector` reproduces each of those faults *on demand* at
exact, configured step indices, so the test suite can prove every
recovery path in :mod:`repro.resilience` instead of hoping.

Both trainers consult an attached injector (``config.chaos``) at three
well-defined points of the step — after gradients are accumulated, after
the parameter update, and at the end of the step — and the
:class:`~repro.resilience.checkpoint.CheckpointManager` consults it
before every archive write.  With no injector attached the trainer hot
loop contains a single ``is None`` branch.

The module also provides :func:`truncate_file` and :func:`flip_bytes`
for corrupting checkpoint archives on disk, exercising the
checksum-validation and fall-back-to-previous-checkpoint paths.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = [
    "SimulatedPreemption",
    "InjectedIOError",
    "ChaosInjector",
    "truncate_file",
    "flip_bytes",
]


class SimulatedPreemption(RuntimeError):
    """Raised by the injector to simulate SIGKILL-style preemption."""


class InjectedIOError(OSError):
    """Raised by the injector to simulate a failed checkpoint write."""


class ChaosInjector:
    """Deterministic fault injection at configured step indices.

    Parameters
    ----------
    nan_grad_at:
        Steps at which the first element of every parameter gradient is
        overwritten with NaN (a poisoned backward pass).
    inf_loss_grad_at:
        Steps at which every gradient is scaled to ``inf`` (an exploded
        loss).
    corrupt_params_at:
        Steps at which one parameter entry is overwritten with NaN
        *after* the optimiser update (silent in-memory corruption; the
        sentinel catches it on the next step's check).
    preempt_at:
        Step index after which :class:`SimulatedPreemption` is raised —
        the step itself completes first, mirroring a signal handled at a
        step boundary.
    fail_writes:
        Zero-based indices of checkpoint *write attempts* that raise
        :class:`InjectedIOError` before any byte reaches disk.

    A real SIGTERM needs no knob: an ``epoch_hook`` that signals its own
    process runs at the same step boundary (see
    ``tests/test_resilience_chaos.py``).
    """

    def __init__(self, nan_grad_at=(), inf_loss_grad_at=(),
                 corrupt_params_at=(), preempt_at: int | None = None,
                 fail_writes=()):
        self.nan_grad_at = frozenset(nan_grad_at)
        self.inf_loss_grad_at = frozenset(inf_loss_grad_at)
        self.corrupt_params_at = frozenset(corrupt_params_at)
        self.preempt_at = preempt_at
        self.fail_writes = frozenset(fail_writes)
        self.counts = {
            "nan_grads": 0,
            "inf_grads": 0,
            "corrupt_params": 0,
            "preemptions": 0,
            "failed_writes": 0,
            "write_attempts": 0,
        }

    # ------------------------------------------------------------------
    # Trainer hooks
    # ------------------------------------------------------------------
    def grads(self, epoch: int, params) -> None:
        """Called after gradients are accumulated, before the update."""
        if epoch in self.nan_grad_at:
            self.counts["nan_grads"] += 1
            for p in params:
                if p.grad is not None and p.grad.size:
                    p.grad.flat[0] = np.nan
        if epoch in self.inf_loss_grad_at:
            self.counts["inf_grads"] += 1
            for p in params:
                if p.grad is not None:
                    p.grad *= np.inf

    def params(self, epoch: int, params) -> None:
        """Called after the optimiser update."""
        if epoch in self.corrupt_params_at:
            self.counts["corrupt_params"] += 1
            for p in params:
                if p.data.size:
                    p.data.flat[0] = np.nan
                    break

    def end_step(self, epoch: int) -> None:
        """Called once the step is fully complete."""
        if self.preempt_at is not None and epoch == self.preempt_at:
            self.counts["preemptions"] += 1
            raise SimulatedPreemption(f"simulated preemption after step {epoch}")

    # ------------------------------------------------------------------
    # Checkpoint hook
    # ------------------------------------------------------------------
    def checkpoint_write(self, path) -> None:
        """Called before every checkpoint write attempt."""
        attempt = self.counts["write_attempts"]
        self.counts["write_attempts"] += 1
        if attempt in self.fail_writes:
            self.counts["failed_writes"] += 1
            raise InjectedIOError(
                f"injected I/O failure on checkpoint write #{attempt} ({path})"
            )


def truncate_file(path, keep_bytes: int = 128) -> Path:
    """Truncate ``path`` in place — a crash-mid-write artifact."""
    path = Path(path)
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.truncate(min(keep_bytes, max(0, size - 1)))
    return path


def flip_bytes(path, offset: int = None, count: int = 8) -> Path:
    """XOR ``count`` bytes mid-file — silent bit-rot corruption."""
    path = Path(path)
    size = path.stat().st_size
    if offset is None:
        offset = size // 2
    with open(path, "r+b") as fh:
        fh.seek(offset)
        chunk = bytearray(fh.read(count))
        fh.seek(offset)
        fh.write(bytes(b ^ 0xFF for b in chunk))
    return path
