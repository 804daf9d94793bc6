"""Noise channels for hardware-realism studies (paper §6.3 future work).

Statevector simulation cannot hold density matrices, so mixed-state noise
is emulated by *Pauli-twirl trajectories*: each trajectory applies random
Pauli errors after every gate with the channel probability, and
observables are averaged over trajectories.  For Pauli channels this is
an unbiased estimator of the density-matrix evolution.

Two channels are provided:

* depolarizing: with probability p, apply X, Y, or Z (uniformly),
* coherent angle noise: every rotation angle is jittered by N(0, σ²) —
  the dominant imperfection of trapped-ion/superconducting analog gates.

These utilities are evaluation-time tools (they act on NumPy parameters
and detached activations); they let users measure how a trained QPINN
head degrades under hardware noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import Tensor, no_grad
from .ansatz import Ansatz, _apply_gate
from .embedding import scaling_fn
from .layer import QuantumLayer
from .measure import pauli_z_expectations
from .state import QuantumState, apply_rx, apply_x, apply_y, apply_z, zero_state

__all__ = ["NoiseModel", "noisy_z_expectations"]


@dataclass(frozen=True)
class NoiseModel:
    """Channel parameters for trajectory-averaged noisy execution."""

    depolarizing: float = 0.0     # per-gate, per-involved-qubit Pauli error
    angle_sigma: float = 0.0      # std of coherent rotation-angle jitter

    def __post_init__(self):
        if not 0.0 <= self.depolarizing <= 1.0:
            raise ValueError("depolarizing probability must be in [0, 1]")
        if self.angle_sigma < 0.0:
            raise ValueError("angle_sigma must be non-negative")

    @property
    def is_noiseless(self) -> bool:
        return self.depolarizing == 0.0 and self.angle_sigma == 0.0


_PAULIS = (apply_x, apply_y, apply_z)


def _maybe_pauli(state: QuantumState, qubits, p: float, rng) -> QuantumState:
    for q in qubits:
        if rng.random() < p:
            state = _PAULIS[rng.integers(3)](state, q)
    return state


def _run_trajectory(
    ansatz: Ansatz,
    angles: np.ndarray,
    params: np.ndarray,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """One noisy trajectory for a batch; returns per-qubit ⟨Z⟩ samples."""
    n = ansatz.n_qubits
    jitter = lambda v: v + rng.normal(0.0, noise.angle_sigma) if noise.angle_sigma else v
    state = zero_state(angles.shape[0], n)
    for q in range(n):
        state = apply_rx(state, q, Tensor(angles[:, q] + (
            rng.normal(0.0, noise.angle_sigma) if noise.angle_sigma else 0.0)))
        state = _maybe_pauli(state, (q,), noise.depolarizing, rng)
    for gate in ansatz.gate_sequence():
        state = _apply_gate(state, gate, lambda i: jitter(params[i]))
        state = _maybe_pauli(state, gate.qubits, noise.depolarizing, rng)
    return pauli_z_expectations(state).data


def noisy_z_expectations(
    layer: QuantumLayer,
    activations: np.ndarray,
    noise: NoiseModel,
    n_trajectories: int = 16,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Trajectory-averaged noisy ⟨Z⟩ readouts of a trained quantum layer.

    With ``noise.is_noiseless`` this returns the exact expectations in a
    single pass (and is asserted equal to the clean layer in the tests).
    """
    rng = rng if rng is not None else np.random.default_rng()
    activations = np.asarray(activations, dtype=np.float64)
    with no_grad():
        angles = scaling_fn(layer.scaling)(Tensor(activations)).data
        if noise.is_noiseless:
            return _run_trajectory(layer.ansatz, angles, layer.params.data, noise, rng)
        samples = [
            _run_trajectory(layer.ansatz, angles, layer.params.data, noise, rng)
            for _ in range(max(1, n_trajectories))
        ]
    return np.mean(samples, axis=0)
