"""3-D Maxwell PINN (paper §6.3 future work).

A hybrid-capable network mapping (x, y, z, t) → the six field components,
trained on curl residuals, divergence penalties, and the solenoidal
Gaussian initial condition, with the exact 3-D spectral solution as the
error reference.  The architecture mirrors the 2-D design: periodic
sin/cos space embedding (+ learned time period), tanh trunk, optional PQC
second-to-last layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, backward, grad, no_grad
from ..maxwell.full3d import (
    Field3DDerivatives,
    curl_residuals_e,
    curl_residuals_h,
    divergence_e,
    divergence_h,
    solenoidal_gaussian,
)
from ..nn import Linear, Module, Parameter
from ..optim import Adam
from ..solvers.spectral3d import Spectral3DSolution, SpectralVacuum3DSolver
from ..torq.layer import QuantumLayer

__all__ = ["Maxwell3DPINN", "Maxwell3DLoss", "Maxwell3DTrainer", "Maxwell3DResult"]

_FIELDS = ("ex", "ey", "ez", "hx", "hy", "hz")


class Maxwell3DPINN(Module):
    """(x, y, z, t) → (E_x, E_y, E_z, H_x, H_y, H_z), optionally hybrid."""

    def __init__(
        self,
        hidden: int = 48,
        n_hidden: int = 3,
        quantum: str | None = None,
        n_qubits: int = 6,
        n_layers: int = 2,
        scaling: str = "acos",
        t_max: float = 1.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        # 3 spatial sin/cos pairs + time sin/cos = 8 periodic features.
        self.raw_time_period = Parameter(
            np.array([np.log(np.expm1(2.0 * t_max))]), name="raw_time_period"
        )
        self.first = Linear(8, hidden, rng=rng)
        self.trunk = []
        for i in range(n_hidden - 1):
            layer = Linear(hidden, hidden, rng=rng)
            setattr(self, f"hidden{i}", layer)
            self.trunk.append(layer)
        self.quantum = None
        if quantum is not None:
            self.pre_quantum = Linear(hidden, n_qubits, rng=rng)
            self.quantum = QuantumLayer(
                n_qubits=n_qubits, n_layers=n_layers, ansatz=quantum,
                scaling=scaling, rng=rng,
            )
            self.head = Linear(n_qubits, 6, rng=rng)
        else:
            self.head = Linear(hidden, 6, rng=rng)

    def _embed(self, x, y, z, t) -> Tensor:
        pi = np.pi
        period = ad.softplus(self.raw_time_period)
        at = t * (2.0 * pi / period)
        feats = [
            ad.sin(x * pi), ad.cos(x * pi),
            ad.sin(y * pi), ad.cos(y * pi),
            ad.sin(z * pi), ad.cos(z * pi),
            ad.sin(at), ad.cos(at),
        ]
        return ad.concatenate(feats, axis=1)

    def forward(self, x: Tensor, y: Tensor, z: Tensor, t: Tensor) -> Tensor:
        """Apply the module to the input tensor(s)."""
        h = ad.tanh(self.first(self._embed(x, y, z, t)))
        for layer in self.trunk:
            h = ad.tanh(layer(h))
        if self.quantum is not None:
            h = self.quantum(ad.tanh(self.pre_quantum(h)))
        return self.head(h)

    def fields(self, x, y, z, t) -> tuple[Tensor, ...]:
        """Evaluate the field components at the given coordinates."""
        out = self.forward(x, y, z, t)
        return tuple(out[:, c:c + 1] for c in range(6))


@dataclass
class Maxwell3DLoss:
    """Curl residuals + divergence penalties + IC (solenoidal Gaussian)."""

    sharpness: float = 25.0
    ic_weight: float = 10.0
    div_weight: float = 1.0
    n_ic: int = 256
    seed: int = 0

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        # Random IC sample drawn from the exact solenoidal pulse.
        n_grid = 24
        axis, ex, ey, ez = solenoidal_gaussian(n_grid, sharpness=self.sharpness)
        idx = rng.integers(0, n_grid, size=(self.n_ic, 3))
        self._ic_coords = np.stack(
            [axis[idx[:, 0]], axis[idx[:, 1]], axis[idx[:, 2]]], axis=1
        )
        self._ic_e = np.stack(
            [ex[idx[:, 0], idx[:, 1], idx[:, 2]],
             ey[idx[:, 0], idx[:, 1], idx[:, 2]],
             ez[idx[:, 0], idx[:, 1], idx[:, 2]]], axis=1
        )

    def _derivatives(self, model, x, y, z, t) -> tuple[tuple, Field3DDerivatives]:
        comps = model.fields(x, y, z, t)
        ex, ey, ez, hx, hy, hz = comps
        dex = grad(ex.sum(), [x, y, z, t], create_graph=True, allow_unused=True)
        dey = grad(ey.sum(), [x, y, z, t], create_graph=True, allow_unused=True)
        dez = grad(ez.sum(), [x, y, z, t], create_graph=True, allow_unused=True)
        dhx = grad(hx.sum(), [x, y, z, t], create_graph=True, allow_unused=True)
        dhy = grad(hy.sum(), [x, y, z, t], create_graph=True, allow_unused=True)
        dhz = grad(hz.sum(), [x, y, z, t], create_graph=True, allow_unused=True)
        d = Field3DDerivatives(
            dEx_dx=dex[0], dEx_dy=dex[1], dEx_dz=dex[2], dEx_dt=dex[3],
            dEy_dx=dey[0], dEy_dy=dey[1], dEy_dz=dey[2], dEy_dt=dey[3],
            dEz_dx=dez[0], dEz_dy=dez[1], dEz_dz=dez[2], dEz_dt=dez[3],
            dHx_dx=dhx[0], dHx_dy=dhx[1], dHx_dz=dhx[2], dHx_dt=dhx[3],
            dHy_dx=dhy[0], dHy_dy=dhy[1], dHy_dz=dhy[2], dHy_dt=dhy[3],
            dHz_dx=dhz[0], dHz_dy=dhz[1], dHz_dz=dhz[2], dHz_dt=dhz[3],
        )
        return comps, d

    def __call__(self, model, coords: np.ndarray) -> tuple[Tensor, dict]:
        """``coords``: (N, 4) collocation array → (loss, components)."""
        x = Tensor(coords[:, 0:1].copy(), requires_grad=True)
        y = Tensor(coords[:, 1:2].copy(), requires_grad=True)
        z = Tensor(coords[:, 2:3].copy(), requires_grad=True)
        t = Tensor(coords[:, 3:4].copy(), requires_grad=True)
        _, d = self._derivatives(model, x, y, z, t)

        phys = None
        for res in (*curl_residuals_e(d), *curl_residuals_h(d)):
            term = (res * res).mean()
            phys = term if phys is None else phys + term
        div_e = divergence_e(d)
        div_h = divergence_h(d)
        div = (div_e * div_e).mean() + (div_h * div_h).mean()

        ic_xyz = self._ic_coords
        zeros = np.zeros((ic_xyz.shape[0], 1))
        fields0 = model.fields(
            Tensor(ic_xyz[:, 0:1].copy()), Tensor(ic_xyz[:, 1:2].copy()),
            Tensor(ic_xyz[:, 2:3].copy()), Tensor(zeros),
        )
        ic = None
        for c in range(3):
            diff = fields0[c] - Tensor(self._ic_e[:, c:c + 1].copy())
            term = (diff * diff).mean() + (fields0[3 + c] * fields0[3 + c]).mean()
            ic = term if ic is None else ic + term

        total = phys + self.div_weight * div + self.ic_weight * ic
        return total, {
            "phys": float(phys.data),
            "div": float(div.data),
            "ic": float(ic.data),
            "total": float(total.data),
        }


@dataclass
class Maxwell3DResult:
    """Trained model, loss history and final L2 of a 3-D Maxwell run."""

    model: object
    loss: list = field(default_factory=list)
    final_l2: float | None = None


class Maxwell3DTrainer:
    """Compact training loop for the 3-D extension."""

    def __init__(
        self,
        model: Maxwell3DPINN,
        loss: Maxwell3DLoss | None = None,
        n_collocation: int = 256,
        t_max: float = 1.0,
        lr: float = 2e-3,
        seed: int = 0,
    ):
        self.model = model
        self.loss = loss if loss is not None else Maxwell3DLoss()
        self.rng = np.random.default_rng(seed)
        self.n_collocation = int(n_collocation)
        self.t_max = float(t_max)
        self.params = model.parameters()
        self.optimizer = Adam(self.params, lr=lr)

    def _sample(self) -> np.ndarray:
        coords = self.rng.uniform(-1, 1, (self.n_collocation, 4))
        coords[:, 3] = self.rng.uniform(0, self.t_max, self.n_collocation)
        return coords

    def l2_error(self, reference: Spectral3DSolution, n_samples: int = 512) -> float:
        """Relative L2 error against the problem's reference solution."""
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, n_samples)
        y = rng.uniform(-1, 1, n_samples)
        z = rng.uniform(-1, 1, n_samples)
        t = rng.uniform(0, float(reference.times[-1]), n_samples)
        ref = reference.interpolate_nearest(x, y, z, t)
        with no_grad():
            pred = self.model.forward(
                Tensor(x.reshape(-1, 1)), Tensor(y.reshape(-1, 1)),
                Tensor(z.reshape(-1, 1)), Tensor(t.reshape(-1, 1)),
            ).data
        denom = np.sum(ref ** 2)
        if denom == 0:
            raise ValueError("reference fields are zero")
        return float(np.sqrt(np.sum((pred - ref) ** 2) / denom))

    def train(self, epochs: int = 50, resample_every: int = 10) -> Maxwell3DResult:
        """Run the training loop and return the result record."""
        import gc

        result = Maxwell3DResult(model=self.model)
        coords = self._sample()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for epoch in range(epochs):
                if epoch and epoch % resample_every == 0:
                    coords = self._sample()
                self.optimizer.zero_grad()
                total, _ = self.loss(self.model, coords)
                backward(total, self.params)
                self.optimizer.step()
                result.loss.append(float(total.data))
                total = None
        finally:
            if gc_was_enabled:
                gc.enable()
        return result
