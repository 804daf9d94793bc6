"""Inverse problem: identify material permittivity from field data
(paper §6.3 future work: "identifying material properties from field
observations").

Setup: fields are observed (from the Padé reference) at scattered
space-time points inside a domain containing a dielectric slab with
*unknown* relative permittivity ε_r.  A PINN/QPINN fits the observations
while the physics loss enforces Maxwell's equations with ε_r as an extra
trainable scalar; at convergence the learned ε_r estimates the medium.

The permittivity is parameterised as ``ε_r = 1 + softplus(raw)`` so the
estimate stays physical (ε_r > 1 inside a dielectric).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, backward, grad
from ..maxwell.media import DielectricSlab
from ..maxwell.tez import (
    residual_ampere_scaled,
    residual_faraday_x,
    residual_faraday_y,
)
from ..nn.module import Parameter
from ..optim import Adam
from ..solvers.maxwell_ref import ReferenceSolution
from .losses import forward_with_derivatives

__all__ = ["InverseResult", "PermittivityEstimator"]


def _inverse_softplus(value: float) -> float:
    return float(np.log(np.expm1(value)))


@dataclass
class InverseResult:
    """Per-step permittivity estimates and losses of an inverse fit."""

    eps_history: list[float] = field(default_factory=list)
    loss_history: list[float] = field(default_factory=list)

    @property
    def eps_estimate(self) -> float:
        """The final permittivity estimate."""
        return self.eps_history[-1]


class PermittivityEstimator:
    """Joint field-fit + physics optimisation of a network and ε_r.

    Parameters
    ----------
    model:
        Any Maxwell model exposing ``fields(x, y, t)`` and ``parameters()``
        (classical PINN or QPINN).
    reference:
        The observed solution (ground truth generated with the true ε_r).
    slab:
        The *geometry* of the dielectric (assumed known; only ε_r is
        inferred — the paper's inverse-problem framing).
    """

    def __init__(
        self,
        model,
        reference: ReferenceSolution,
        slab: DielectricSlab,
        eps_init: float = 2.0,
        data_weight: float = 10.0,
        lr: float = 5e-3,
        n_observations: int = 512,
        n_collocation: int = 512,
        seed: int = 0,
    ):
        self.model = model
        self.reference = reference
        self.slab = slab
        self.data_weight = float(data_weight)
        self.raw_eps = Parameter(
            np.array([_inverse_softplus(eps_init - 1.0)]), name="raw_eps"
        )
        self.params = list(model.parameters()) + [self.raw_eps]
        self.optimizer = Adam(self.params, lr=lr)
        rng = np.random.default_rng(seed)
        t_max = float(reference.times[-1])
        # Observation set: field values sampled from the reference.
        xo = rng.uniform(-1, 1, n_observations)
        yo = rng.uniform(-1, 1, n_observations)
        to = rng.uniform(0, t_max, n_observations)
        ez, hx, hy = reference.interpolate(xo, yo, to)
        self._obs_coords = tuple(
            Tensor(v.reshape(-1, 1)) for v in (xo, yo, to)
        )
        self._obs_fields = tuple(
            Tensor(v.reshape(-1, 1)) for v in (ez, hx, hy)
        )
        # Collocation set for the physics residuals.
        xc = rng.uniform(-1, 1, n_collocation)
        yc = rng.uniform(-1, 1, n_collocation)
        tc = rng.uniform(0, t_max, n_collocation)
        self._col = tuple(
            Tensor(v.reshape(-1, 1), requires_grad=True) for v in (xc, yc, tc)
        )
        # Indicator of the (known) slab geometry at the collocation points.
        inside = ((xc >= slab.x_min) & (xc <= slab.x_max)).astype(np.float64)
        self._inside = Tensor(inside.reshape(-1, 1))

    # ------------------------------------------------------------------
    def eps_r(self) -> Tensor:
        """Current differentiable ε_r estimate (> 1)."""
        return 1.0 + ad.softplus(self.raw_eps)

    def _loss(self) -> Tensor:
        # Physics: 1/ε(x) = 1 outside the slab, 1/ε_r inside.
        bundle = forward_with_derivatives(self.model, *self._col)
        inv_eps = 1.0 + self._inside * (1.0 / self.eps_r() - 1.0)
        res1 = residual_ampere_scaled(bundle.derivs, inv_eps)
        res2 = residual_faraday_x(bundle.derivs)
        res3 = residual_faraday_y(bundle.derivs)
        phys = (res1 * res1).mean() + (res2 * res2).mean() + (res3 * res3).mean()
        # Data misfit at the observation points.
        ez, hx, hy = self.model.fields(*self._obs_coords)
        oez, ohx, ohy = self._obs_fields
        data = (
            ((ez - oez) * (ez - oez)).mean()
            + ((hx - ohx) * (hx - ohx)).mean()
            + ((hy - ohy) * (hy - ohy)).mean()
        )
        return phys + self.data_weight * data

    def fit(self, epochs: int = 100) -> InverseResult:
        """Run the optimisation loop and return the result record."""
        import gc

        result = InverseResult()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(epochs):
                self.optimizer.zero_grad()
                loss = self._loss()
                backward(loss, self.params)
                self.optimizer.step()
                result.loss_history.append(float(loss.data))
                result.eps_history.append(float(self.eps_r().data[0]))
                loss = None
        finally:
            if gc_was_enabled:
                gc.enable()
        return result
