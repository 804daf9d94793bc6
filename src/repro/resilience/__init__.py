"""``repro.resilience`` — fault-tolerant training runtime.

Long QPINN runs fail in three characteristic ways: the loss
suddenly diverges (the paper's "black-hole" collapse events), the
process is preempted or crashes, and artifacts on disk rot or truncate.
This package makes all three survivable:

* :mod:`~repro.resilience.sentinel` — a per-step **divergence sentinel**
  that checks loss/gradient/parameter finiteness and applies a
  configurable policy: ``halt`` with diagnostics, ``skip`` the poisoned
  update, or ``rollback`` to the last known-good in-memory snapshot with
  learning-rate backoff and a bounded retry budget.
* :mod:`~repro.resilience.checkpoint` — a **checkpoint manager** driving
  the atomic, checksummed archives of :mod:`repro.core.checkpoint` on a
  periodic + best-loss cadence with a retention policy, and resuming
  from the newest *valid* archive (corrupt files are skipped, counted,
  and cost at most one cadence interval of progress).
* :mod:`~repro.resilience.chaos` — a **chaos-injection harness** (NaN
  gradients, parameter corruption, simulated preemption, failing
  checkpoint writes) the test suite uses to prove each recovery path.
* :mod:`~repro.resilience.signals` — graceful SIGINT/SIGTERM handling
  that finishes the current step, writes a final checkpoint, and exits
  cleanly.

The one training loop, :class:`repro.core.loop.TrainLoop`, behind
:class:`repro.core.Trainer` and :class:`repro.pde.PDETrainer`, wires
these in from the shared config fields (``sentinel=``,
``checkpoint_dir=``, ``resume_from=``, ``chaos=``); with everything off,
its hot loop is unchanged.  Every recovery event increments a
``resilience.*`` counter in the :mod:`repro.obs` metrics registry.
"""

from .chaos import (
    ChaosInjector,
    InjectedIOError,
    SimulatedPreemption,
    flip_bytes,
    truncate_file,
)
from .checkpoint import CheckpointManager
from .sentinel import DivergenceError, DivergenceSentinel, SentinelConfig
from .signals import GracefulShutdown

__all__ = [
    "SentinelConfig",
    "DivergenceSentinel",
    "DivergenceError",
    "CheckpointManager",
    "ChaosInjector",
    "SimulatedPreemption",
    "InjectedIOError",
    "truncate_file",
    "flip_bytes",
    "GracefulShutdown",
]
