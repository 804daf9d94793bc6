"""The Maxwell PINN/QPINN trainer with the paper's diagnostics.

Runs on the shared :class:`repro.core.loop.TrainLoop`.  Tracks, per
epoch: total loss and its components, global gradient norm and variance
(Fig. 10c–d), learning rate; optionally (sparsely) the L2 error against
a reference solution (Fig. 10a) and — for QPINNs — the Meyer–Wallach
entanglement of the circuit state on a probe batch (Fig. 10e).  After
training it computes the black-hole indicator I_BH.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..autodiff import Tensor, backward, no_grad
from ..autodiff.tape import TapeFallback
from ..dist.bucket import shard_slice
from ..optim import LBFGS, StepDecay
from ..solvers.maxwell_ref import ReferenceSolution
from ..torq.entanglement import meyer_wallach
from .blackhole import is_collapsed, model_bh_indicator
from .collocation import CollocationGrid
from .losses import MaxwellLoss
from .loop import LoopConfig, TrainLoop, phase
from .metrics import l2_relative_error

__all__ = ["TrainerConfig", "TrainingHistory", "TrainingResult", "Trainer"]

#: probe points of the Meyer–Wallach entanglement diagnostic
_ENTANGLEMENT_PROBE = 64


@dataclass
class TrainerConfig(LoopConfig):
    """Hyperparameters (defaults follow the paper where known)."""

    lr_step: int = 2000
    lr_gamma: float = 0.85
    track_entanglement: bool = True
    bh_n_space: int = 16
    bh_n_times: int = 10
    #: extra quasi-Newton epochs after Adam (ref. [21]'s Adam→L-BFGS recipe)
    lbfgs_epochs: int = 0
    #: clip the global gradient norm (0 disables)
    clip_grad_norm: float = 0.0
    #: sample this many collocation points per epoch instead of the full
    #: grid (0 = full batch).  The paper deliberately avoids mini-batching,
    #: citing Hao et al. [34] that it degrades PINNs — this knob exists to
    #: test that claim (see benchmarks/test_minibatch_ablation.py).
    batch_points: int = 0


@dataclass
class TrainingHistory:
    """Per-epoch series; sparse series carry their epoch indices."""

    loss: list[float] = field(default_factory=list)
    components: dict[str, list[float]] = field(default_factory=dict)
    grad_norm: list[float] = field(default_factory=list)
    grad_variance: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    l2_epochs: list[int] = field(default_factory=list)
    l2_error: list[float] = field(default_factory=list)
    mw_epochs: list[int] = field(default_factory=list)
    mw_entropy: list[float] = field(default_factory=list)
    #: ‖θ_e − θ_0‖ / ‖θ_0‖ per epoch — the "laziness" diagnostic the paper
    #: contrasts the BH collapse against (ref. [25]): lazy training shows
    #: near-zero drift, BH shows genuine movement followed by collapse.
    param_drift: list[float] = field(default_factory=list)
    seconds_per_epoch: float = 0.0
    #: set when training stopped early on a non-finite loss (no sentinel
    #: configured): the offending epoch and an actionable diagnostic.
    stop_epoch: int | None = None
    stop_reason: str | None = None
    #: set when ``config.epoch_hook`` requested a clean early stop (e.g.
    #: a campaign monitor early-stopping a doomed run).
    early_stop_epoch: int | None = None
    early_stop_reason: str | None = None


@dataclass
class TrainingResult:
    """Everything the experiment harnesses need from one run."""

    model: object
    history: TrainingHistory
    final_l2: float | None
    i_bh: float
    collapsed: bool
    converged: bool
    #: the run was stopped by SIGINT/SIGTERM or a simulated preemption
    #: after writing a final checkpoint; resume with ``resume_from=``.
    interrupted: bool = False


class Trainer(TrainLoop):
    """Orchestrates one training run of a PINN/QPINN on one test case."""

    _name = "maxwell"

    def __init__(
        self,
        model,
        loss: MaxwellLoss,
        grid: CollocationGrid,
        config: TrainerConfig | None = None,
        reference: ReferenceSolution | None = None,
    ):
        config = config if config is not None else TrainerConfig()
        if config.batch_points and loss.rba is not None:
            # RBA weights are indexed by fixed collocation ids; resampled
            # mini-batches would scramble the mapping.
            raise ValueError("batch_points cannot be combined with RBA weights")
        self.loss = loss
        self.grid = grid
        self.reference = reference
        super().__init__(
            model, config, rng=np.random.default_rng(424242),
            scheduler=partial(StepDecay, step_size=config.lr_step,
                              gamma=config.lr_gamma),
            curriculum=loss.curriculum,
        )
        self._probe = self._make_probe()
        self._theta0 = np.concatenate([p.data.ravel().copy() for p in self.params])
        self._theta0_norm = float(np.linalg.norm(self._theta0)) or 1.0

    # ------------------------------------------------------------------
    def _make_probe(self):
        """Fixed random probe points for the entanglement diagnostic."""
        rng = np.random.default_rng(12345)
        k = _ENTANGLEMENT_PROBE
        x = rng.uniform(-1, 1, (k, 1))
        y = rng.uniform(-1, 1, (k, 1))
        t = rng.uniform(0, self.grid.t_max, (k, 1))
        return Tensor(x), Tensor(y), Tensor(t)

    def _entanglement(self) -> float | None:
        if not hasattr(self.model, "quantum_state"):
            return None
        with no_grad():
            state = self.model.quantum_state(*self._probe)
        return float(meyer_wallach(state).mean())

    # ------------------------------------------------------------------
    # Resilience wiring
    # ------------------------------------------------------------------
    def _checkpoint_arrays(self) -> dict:
        """Trainer-local state a bitwise resume needs beyond the core."""
        arrays = {"theta0": self._theta0}
        cur = self.loss.curriculum
        if cur is not None:
            arrays["curriculum/progress"] = np.array(cur._progress)
            arrays["curriculum/best_loss"] = np.array(cur._best_loss)
            arrays["curriculum/bin_losses"] = cur._bin_losses
        if self.loss.rba is not None:
            arrays["rba/values"] = self.loss.rba.values
        return arrays

    def _restore_arrays(self, arrays: dict) -> None:
        if "theta0" in arrays:
            self._theta0 = arrays["theta0"]
            self._theta0_norm = float(np.linalg.norm(self._theta0)) or 1.0
        cur = self.loss.curriculum
        if cur is not None and "curriculum/progress" in arrays:
            cur._progress = float(arrays["curriculum/progress"])
            cur._best_loss = float(arrays["curriculum/best_loss"])
            cur._bin_losses = arrays["curriculum/bin_losses"].copy()
        if self.loss.rba is not None and "rba/values" in arrays:
            self.loss.rba.values = arrays["rba/values"].copy()

    # ------------------------------------------------------------------
    # The step and its per-epoch record
    # ------------------------------------------------------------------
    def _traceable(self, rank):
        """The pure fixed-grid step; raises ``TapeFallback`` when stateful.

        Stateful weighting (curriculum, RBA) and per-epoch mini-batching
        change the computation between epochs, so only the plain
        fixed-grid step is captured; everything else stays define-by-run
        and the reason is kept for :meth:`cache_info`.  The tape folds
        the grid at trace time, so each shard needs its own capture.
        """
        if self.config.batch_points:
            raise TapeFallback("mini-batching draws a new grid every epoch")
        if self.loss.curriculum is not None:
            raise TapeFallback("curriculum weights change every epoch")
        if self.loss.rba is not None:
            raise TapeFallback("RBA weights change every epoch")
        loss_fn, model, grid = self.loss, self.model, self._grid_for(rank)

        def step_fn():
            return loss_fn.loss_tensors(model, grid)

        return step_fn

    def _step(self, epoch: int, recorder=None, rank=None):
        """The Maxwell loss and its gradients on the grid or a shard."""
        step = self._compiled_step(rank) if recorder is None else None
        if step is not None:
            return self._replay(step)
        grid = self._grid_for(rank)
        with phase(recorder, "forward"):
            total, comps = self.loss(self.model, grid, epoch)
        with phase(recorder, "backward"):
            backward(total, self.params)
        return float(total.data), comps

    def _grid_for(self, rank) -> CollocationGrid:
        """This epoch's (mini-batch) grid, or ``rank``'s fixed shard."""
        if rank is not None:
            sl = shard_slice(self.grid.n_points, rank, self._dist_ctx.world,
                             "CollocationGrid.n_points")
            return self.grid.subsample(np.arange(sl.start, sl.stop))
        points = self.config.batch_points
        if points and points < self.grid.n_points:
            indices = self.rng.choice(self.grid.n_points, size=points,
                                      replace=False)
            return self.grid.subsample(indices)
        return self.grid

    def _clip_gradients(self) -> None:
        limit = self.config.clip_grad_norm
        if limit <= 0:
            return
        total = np.sqrt(sum(
            float((p.grad ** 2).sum()) for p in self.params if p.grad is not None
        ))
        if total > limit:
            scale = limit / total
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale

    def _param_drift(self) -> float:
        theta = np.concatenate([p.data.ravel() for p in self.params])
        return float(np.linalg.norm(theta - self._theta0)) / self._theta0_norm

    def _new_record(self) -> TrainingHistory:
        return TrainingHistory()

    def _record(self, hist: TrainingHistory, comps: dict, stats: tuple) -> dict:
        hist.param_drift.append(self._param_drift())
        for key, value in comps.items():
            hist.components.setdefault(key, []).append(value)
        hist.grad_norm.append(stats[0])
        hist.grad_variance.append(stats[1])
        hist.learning_rate.append(self.scheduler.current_lr())
        return {"param_drift": hist.param_drift[-1],
                "learning_rate": hist.learning_rate[-1]}

    def _evaluate_epoch(self, epoch: int, hist: TrainingHistory):
        """L2 against the reference (returned) and MW entanglement."""
        l2 = None
        if self.reference is not None:
            l2 = l2_relative_error(self.model, self.reference)
        if self.config.track_entanglement:
            mw = self._entanglement()
            if mw is not None:
                hist.mw_epochs.append(epoch)
                hist.mw_entropy.append(mw)
        return l2

    def _finetune(self, hist: TrainingHistory) -> None:
        """Quasi-Newton fine-tuning phase after the Adam epochs."""
        cfg = self.config
        if not cfg.lbfgs_epochs:
            return
        optimizer = LBFGS(self.params)
        epoch_offset = cfg.epochs

        def closure() -> float:
            optimizer.zero_grad()
            total, _ = self.loss(self.model, self.grid, epoch_offset)
            backward(total, self.params)
            return float(total.data)

        for k in range(cfg.lbfgs_epochs):
            loss_value = optimizer.step(closure)
            hist.loss.append(loss_value)
            norm, var = self._grad_stats()
            hist.grad_norm.append(norm)
            hist.grad_variance.append(var)
            hist.learning_rate.append(0.0)  # line-search controlled
            if cfg.eval_every and self.reference is not None and (
                k == cfg.lbfgs_epochs - 1
            ):
                hist.l2_epochs.append(epoch_offset + k)
                hist.l2_error.append(l2_relative_error(self.model, self.reference))

    # ------------------------------------------------------------------
    # Data-parallel sharding (repro.dist)
    # ------------------------------------------------------------------
    def _dist_validate(self, world: int) -> None:
        cfg = self.config
        if cfg.batch_points:
            raise ValueError(
                "dist training shards the full collocation grid; it "
                "cannot be combined with batch_points mini-batching"
            )
        if cfg.lbfgs_epochs:
            raise ValueError(
                "dist training does not support the L-BFGS fine-tuning "
                "phase (its line search is inherently full-batch serial); "
                "set lbfgs_epochs=0"
            )
        if self.loss.curriculum is not None or self.loss.rba is not None:
            raise ValueError(
                "dist training cannot shard stateful loss weighting "
                "(curriculum / RBA): their state depends on full-batch "
                "point identities; disable them for distributed runs"
            )
        shard_slice(self.grid.n_points, 0, world,
                    "CollocationGrid.n_points")

    def _finalize(self, hist: TrainingHistory, interrupted: bool,
                  seconds_per_epoch: float) -> TrainingResult:
        cfg = self.config
        hist.seconds_per_epoch = seconds_per_epoch
        eps_fn = self.grid.medium.permittivity
        i_bh = model_bh_indicator(
            self.model,
            self.grid.t_max,
            eps_fn=eps_fn,
            n_space=cfg.bh_n_space,
            n_times=cfg.bh_n_times,
        )
        final_l2 = hist.l2_error[-1] if hist.l2_error else None
        collapsed = is_collapsed(i_bh)
        # The paper marks non-converged runs with an "X"; we treat collapse,
        # a non-finite loss, or a mid-run divergence stop as non-convergence.
        finite = bool(hist.loss and np.isfinite(hist.loss[-1]))
        converged = finite and not collapsed and hist.stop_reason is None
        return TrainingResult(
            model=self.model,
            history=hist,
            final_l2=final_l2,
            i_bh=i_bh,
            collapsed=collapsed,
            converged=converged,
            interrupted=interrupted,
        )
