"""Data re-uploading circuits (paper §6.2 follow-up (c); Pérez-Salinas
et al. 2020).

A re-uploading circuit interleaves the RX data encoding with the
variational blocks:

    [encode(a) → ansatz-layer]  × n_cycles  (+ final encode optional)

Schuld et al. 2021 show the accessible Fourier spectrum of the model
output grows with the number of encoding repetitions, so re-uploading is
the natural knob for the paper's "harmonic feature expansion" hypothesis.
Each cycle reuses the *same* input activations but owns fresh variational
parameters.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..nn.module import Module, Parameter
from .ansatz import Ansatz, apply_ansatz, make_ansatz
from .embedding import angle_embedding, rx_product_state, scale_input
from .layer import initial_circuit_params
from .measure import pauli_z_expectations
from .state import QuantumState

__all__ = ["ReuploadingQuantumLayer"]


class ReuploadingQuantumLayer(Module):
    """PQC with ``n_cycles`` interleaved encode/variational blocks.

    With ``n_cycles=1`` this is exactly :class:`~repro.torq.QuantumLayer`
    (one encoding followed by the full ansatz); larger values repeat the
    encoding between fresh ansatz instances, multiplying both the
    parameter count and the output spectrum's harmonic reach.
    """

    def __init__(
        self,
        n_qubits: int = 7,
        n_layers: int = 4,
        n_cycles: int = 2,
        ansatz: str = "strongly_entangling",
        scaling: str = "acos",
        init: str = "reg",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if n_cycles < 1:
            raise ValueError("need at least one re-uploading cycle")
        self.n_qubits = int(n_qubits)
        self.n_cycles = int(n_cycles)
        self.scaling = str(scaling)
        self.ansatze: list[Ansatz] = []
        rng = rng if rng is not None else np.random.default_rng()
        for cycle in range(self.n_cycles):
            blueprint = make_ansatz(ansatz, n_qubits=n_qubits, n_layers=n_layers)
            self.ansatze.append(blueprint)
            setattr(
                self,
                f"params{cycle}",
                Parameter(
                    initial_circuit_params(init, blueprint.param_count, rng=rng),
                    name=f"quantum_params_{cycle}",
                ),
            )

    @property
    def in_features(self) -> int:
        """Input width expected by this layer."""
        return self.n_qubits

    @property
    def out_features(self) -> int:
        """Output width produced by this layer."""
        return self.n_qubits

    def quantum_parameter_count(self) -> int:
        """Number of variational circuit parameters."""
        return sum(a.param_count for a in self.ansatze)

    def run_state(self, activations: Tensor) -> QuantumState:
        """Encode inputs and run the circuit, returning the state."""
        if activations.ndim != 2 or activations.shape[1] != self.n_qubits:
            raise ValueError(
                f"expected (batch, {self.n_qubits}) activations, got {activations.shape}"
            )
        angles = scale_input(self.scaling, activations)
        state = rx_product_state(angles)
        for cycle, ansatz in enumerate(self.ansatze):
            if cycle:
                state = angle_embedding(state, angles)
            state = apply_ansatz(state, ansatz, getattr(self, f"params{cycle}"))
        return state

    def forward(self, activations: Tensor) -> Tensor:
        """Apply the module to the input tensor(s)."""
        return pauli_z_expectations(self.run_state(activations))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ReuploadingQuantumLayer(cycles={self.n_cycles}, "
            f"qubits={self.n_qubits}, params={self.quantum_parameter_count()})"
        )
