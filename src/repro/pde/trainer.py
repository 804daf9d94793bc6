"""Compact trainer for the generic PDE problems.

A counterpart of :class:`repro.core.trainer.Trainer` for the
Schrödinger/Burgers/Poisson extensions on the same
:class:`repro.core.loop.TrainLoop`: random collocation resampling, Adam,
residual + data losses, and relative-L2 tracking.

When an :func:`repro.obs.observe` recorder is active the epoch loop emits
per-epoch telemetry (loss components, gradient norm, and the
gradient-variance black-hole statistic) and times its phases under nested
obs scopes; otherwise it runs the plain, uninstrumented path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import backward
from ..core.loop import LoopConfig, TrainLoop, phase

__all__ = ["PDETrainerConfig", "PDETrainingResult", "PDETrainer"]


@dataclass
class PDETrainerConfig(LoopConfig):
    """Hyperparameters of a generic-PDE training run."""

    lr: float = 2e-3
    eval_every: int = 50
    n_collocation: int = 256
    n_data: int = 64
    data_weight: float = 10.0
    resample_every: int = 10
    seed: int = 0
    #: Gradient backend for a model's quantum layer ("backprop", "adjoint",
    #: or "parameter_shift").  Backprop is required when the problem's
    #: residual loss differentiates the network output with respect to its
    #: inputs (create_graph) *through the quantum layer*; the analytic
    #: backends suit data-loss-only training and fully classical residuals.
    quantum_grad_method: str = "backprop"


@dataclass
class PDETrainingResult:
    """Loss and L2 history of one generic-PDE training run."""

    model: object
    loss: list[float] = field(default_factory=list)
    l2_epochs: list[int] = field(default_factory=list)
    l2_error: list[float] = field(default_factory=list)
    #: the run was stopped by SIGINT/SIGTERM or a simulated preemption
    #: after writing a final checkpoint; resume with ``resume_from=``.
    interrupted: bool = False
    #: set when training stopped early on a non-finite loss or gradient (no
    #: sentinel configured): the offending epoch and an actionable diagnostic.
    stop_epoch: int | None = None
    stop_reason: str | None = None
    #: set when ``config.epoch_hook`` requested a clean early stop: the
    #: epoch and the hook's reason (``"epoch_hook"`` for a non-string).
    early_stop_epoch: int | None = None
    early_stop_reason: str | None = None

    @property
    def final_l2(self) -> float | None:
        """Last recorded relative L2 error (None if never evaluated)."""
        return self.l2_error[-1] if self.l2_error else None


class PDETrainer(TrainLoop):
    """Train a :class:`GenericPINN` on one :mod:`repro.pde.problems` task."""

    def __init__(self, model, problem, config: PDETrainerConfig | None = None):
        config = config if config is not None else PDETrainerConfig()
        self._name = getattr(problem, "name", "pde")
        if not (hasattr(problem, "data_arrays")
                and hasattr(problem, "data_terms")):
            raise ValueError(
                f"problem {self._name!r} provides no data_arrays/data_terms: "
                f"PDETrainer builds its step from explicit arrays, so add "
                f"data_arrays(n, rng) -> tuple of arrays and "
                f"data_terms(model, *arrays) -> Tensor"
            )
        quantum = getattr(model, "quantum", None)
        if quantum is not None and hasattr(quantum, "grad_method"):
            from ..torq.layer import GRAD_METHODS

            method = config.quantum_grad_method
            if method not in GRAD_METHODS:
                raise ValueError(
                    f"unknown quantum_grad_method {method!r}; "
                    f"available: {GRAD_METHODS}"
                )
            quantum.grad_method = method
        self.problem = problem
        super().__init__(model, config, rng=np.random.default_rng(config.seed))
        self._points = None
        self._data = None
        self._step_fn = None
        self._reference = None

    def _evaluate(self) -> float:
        if not hasattr(self.problem, "reference"):
            return self.problem.l2_error(self.model)
        if self._reference is None:
            self._reference = self.problem.reference()
        return self.problem.l2_error(self.model, self._reference)

    # ------------------------------------------------------------------
    # The step and its per-epoch record
    # ------------------------------------------------------------------
    def _sample(self, epoch: int) -> None:
        """Draw the collocation (every ``resample_every``) and data arrays."""
        cfg = self.config
        if self._points is None or epoch % cfg.resample_every == 0:
            self._points = self.problem.sample(cfg.n_collocation, self.rng)
        self._data = self.problem.data_arrays(cfg.n_data, self.rng)

    def _traceable(self):
        return self._step_fn

    def _make_step_fn(self, n_res: int):
        """``step_fn(*residual_arrays, *data_arrays) -> (loss, terms)``."""
        problem, model = self.problem, self.model
        weight = self.config.data_weight
        res_terms = getattr(problem, "residual_terms", problem.residual_loss)

        def step_fn(*arrays):
            res = res_terms(model, *arrays[:n_res])
            dat = problem.data_terms(model, *arrays[n_res:])
            return res + weight * dat, {"residual": res, "data": dat}

        return step_fn

    def _step(self, epoch: int, recorder=None):
        """Residual + weighted data loss and their gradients."""
        points, data = self._points, self._data
        expand = getattr(self.problem, "residual_arrays", None)
        arrays = (*(points if expand is None else expand(*points)), *data)
        if self._step_fn is None:
            self._step_fn = self._make_step_fn(len(arrays) - len(data))
        # Arrays are step inputs, so one compiled step serves every sample.
        step = self._compiled_step() if recorder is None else None
        if step is not None:
            return self._replay(step, *arrays)
        with phase(recorder, "forward"):
            total, terms = self._step_fn(*arrays)
        with phase(recorder, "backward"):
            backward(total, self.params)
        return float(total.data), {k: float(v.data) for k, v in terms.items()}

    def _new_record(self) -> PDETrainingResult:
        return PDETrainingResult(model=self.model)

    def _evaluate_epoch(self, epoch: int, result: PDETrainingResult) -> float:
        return self._evaluate()

    def _finalize(self, result: PDETrainingResult, interrupted: bool,
                  seconds_per_epoch: float) -> PDETrainingResult:
        result.interrupted = interrupted
        return result

    # ------------------------------------------------------------------
    # Resilience wiring
    # ------------------------------------------------------------------
    def _checkpoint_arrays(self) -> dict:
        """The live collocation sample (resampled only every N epochs)."""
        if self._points is None:
            return {}
        return {f"points/{i}": a for i, a in enumerate(self._points)}

    def _restore_arrays(self, arrays: dict) -> None:
        keys = sorted(
            (k for k in arrays if k.startswith("points/")),
            key=lambda k: int(k.rsplit("/", 1)[1]),
        )
        if keys:
            self._points = tuple(arrays[k] for k in keys)
