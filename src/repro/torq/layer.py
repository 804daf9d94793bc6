"""The quantum layer: a PQC usable as a neural-network module (Fig. 2).

Pipeline per forward pass, batched over all collocation points:

    tanh activations (batch, n_qubits)
      → input scaling (Eq. 29)          → rotation angles
      → RX(θ)|0…0⟩ product state        → data-encoded state
      → ansatz layers (Fig. 4)          → variational state
      → per-qubit ⟨Z⟩ readout           → (batch, n_qubits) outputs

Everything is differentiable twice, so the layer can sit inside a PINN
whose loss contains input-derivatives of the network outputs.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, make_node, no_grad
from ..nn.module import Module, Parameter
from .ansatz import Ansatz, GateSpec, apply_ansatz, make_ansatz
from .compile import compile_gates
from .embedding import rx_product_state, scale_input
from .measure import pauli_z_expectations
from .state import QuantumState, zero_state

__all__ = [
    "QuantumLayer",
    "GRAD_METHODS",
    "INIT_STRATEGIES",
    "initial_circuit_params",
]

# §5.2 parameter-initialisation strategies.
INIT_STRATEGIES: tuple[str, ...] = ("reg", "zeros", "pi", "half_pi")

#: Selectable gradient backends (see :mod:`repro.torq.adjoint` for the
#: trade-offs between them).
GRAD_METHODS: tuple[str, ...] = ("backprop", "adjoint", "parameter_shift")


def initial_circuit_params(
    strategy: str,
    count: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Initial quantum parameters per the paper's §5.2 strategies.

    * ``reg``     — U[0, 2π) (used throughout the paper)
    * ``zeros``   — all 0
    * ``pi``      — all π
    * ``half_pi`` — all π/2
    """
    if strategy == "reg":
        rng = rng if rng is not None else np.random.default_rng()
        return rng.uniform(0.0, 2.0 * np.pi, size=count)
    if strategy == "zeros":
        return np.zeros(count)
    if strategy == "pi":
        return np.full(count, np.pi)
    if strategy == "half_pi":
        return np.full(count, np.pi / 2.0)
    raise ValueError(
        f"unknown init strategy {strategy!r}; available: {INIT_STRATEGIES}"
    )


class QuantumLayer(Module):
    """A parametrised quantum circuit as an ``n_qubits → n_qubits`` module."""

    def __init__(
        self,
        n_qubits: int = 7,
        n_layers: int = 4,
        ansatz: str | Ansatz = "strongly_entangling",
        scaling: str = "acos",
        init: str = "reg",
        rng: np.random.Generator | None = None,
        compiled: bool = True,
        grad_method: str = "backprop",
        precision: str = "float64",
    ):
        super().__init__()
        if grad_method not in GRAD_METHODS:
            raise ValueError(
                f"unknown grad_method {grad_method!r}; "
                f"available: {GRAD_METHODS}"
            )
        from ..lower import PRECISION_TIERS

        if precision not in PRECISION_TIERS:
            raise ValueError(
                f"unknown precision tier {precision!r}; "
                f"available: {PRECISION_TIERS}"
            )
        if precision != "float64" and grad_method != "adjoint":
            raise ValueError(
                f"lowered execution (precision={precision!r}) is "
                "measured-path only; it requires grad_method='adjoint' "
                f"(got grad_method={grad_method!r})"
            )
        self.ansatz = ansatz if isinstance(ansatz, Ansatz) else make_ansatz(
            ansatz, n_qubits=n_qubits, n_layers=n_layers
        )
        self.n_qubits = self.ansatz.n_qubits
        self.n_layers = self.ansatz.n_layers
        self.scaling = str(scaling)
        self.init_strategy = str(init)
        self.compiled = bool(compiled)
        self.grad_method = str(grad_method)
        #: ``"float32"`` runs the measured path through the lowered
        #: planned executor (:mod:`repro.lower`); ``"float64"`` through
        #: the seed plan.
        self.precision = str(precision)
        self.params = Parameter(
            initial_circuit_params(init, self.ansatz.param_count, rng=rng),
            name="quantum_params",
        )
        self._embedded_gates: tuple[GateSpec, ...] | None = None

    @property
    def in_features(self) -> int:
        """Input width expected by this layer."""
        return self.n_qubits

    @property
    def out_features(self) -> int:
        """Output width produced by this layer."""
        return self.n_qubits

    def run_state(self, activations: Tensor) -> QuantumState:
        """Encode activations and run the ansatz, returning the final state."""
        if activations.ndim != 2 or activations.shape[1] != self.n_qubits:
            raise ValueError(
                f"expected activations of shape (batch, {self.n_qubits}), "
                f"got {activations.shape}"
            )
        state = rx_product_state(scale_input(self.scaling, activations))
        return apply_ansatz(state, self.ansatz, self.params, compiled=self.compiled)

    def embedded_gate_sequence(self) -> tuple[GateSpec, ...]:
        """The full circuit including the RX embedding as explicit gates.

        Flat parameter indices ``0..n_qubits-1`` are the (per-batch)
        embedding angles; ansatz parameters follow, offset by ``n_qubits``.
        This is the gate list the adjoint and parameter-shift backends
        compile, so one plan covers embedding *and* ansatz.
        """
        if self._embedded_gates is None:
            n = self.n_qubits
            gates = [GateSpec("rx", (q,), (q,)) for q in range(n)]
            for g in self.ansatz.gate_sequence():
                gates.append(
                    GateSpec(g.name, g.qubits, tuple(i + n for i in g.params))
                )
            self._embedded_gates = tuple(gates)
        return self._embedded_gates

    def _forward_measured(self, activations: Tensor) -> Tensor:
        """Forward with an analytic (adjoint / parameter-shift) backward.

        The forward runs under ``no_grad`` — no tape — and the returned
        tensor carries custom VJPs: one reverse adjoint sweep (or one
        mega-batched shift replay) produces the cotangents for both the
        embedding angles and the circuit parameters.  First-order only:
        ``create_graph=True`` raises, pointing callers at backprop.
        """
        from .adjoint import adjoint_state_vjp
        from .shift import batched_state_shift_vjp

        if activations.ndim != 2 or activations.shape[1] != self.n_qubits:
            raise ValueError(
                f"expected activations of shape (batch, {self.n_qubits}), "
                f"got {activations.shape}"
            )
        n = self.n_qubits
        batch = activations.shape[0]
        gates = self.embedded_gate_sequence()
        plan = compile_gates(gates, n)
        lowered = None
        if self.precision != "float64":
            from ..lower import lower_plan

            lowered = lower_plan(gates, n)
        angles = scale_input(self.scaling, activations)  # graph-recorded
        method = self.grad_method
        with no_grad():
            values = [angles[:, q] for q in range(n)]
            values += [self.params[i] for i in range(self.ansatz.param_count)]
            if lowered is not None:
                planes = lowered.run_planes(batch, lambda i: values[i])
                z_data = np.asarray(
                    lowered.z_expectations(planes), dtype=np.float64
                )
            else:
                final = plan.run(zero_state(batch, n), lambda i: values[i])
                z_data = pauli_z_expectations(final).data

        memo: dict[int, list] = {}

        def flat_grads(ct: Tensor) -> list:
            if ad.is_grad_enabled():
                raise RuntimeError(
                    f"grad_method={method!r} produces numeric first-order "
                    "gradients and cannot be differentiated again; use "
                    "grad_method='backprop' for create_graph=True (e.g. "
                    "PDE residual losses with input derivatives)"
                )
            key = id(ct)
            if key not in memo:
                w = np.asarray(ct.data, dtype=np.float64)
                if lowered is not None:
                    memo[key] = lowered.adjoint_vjp(values, w, planes=planes)
                elif method == "adjoint":
                    memo[key] = adjoint_state_vjp(
                        gates, n, values, w, plan=plan, final_state=final
                    )
                else:
                    memo[key] = batched_state_shift_vjp(
                        gates, n, values, w, plan=plan
                    )
            return memo[key]

        def vjp_angles(ct: Tensor) -> Tensor:
            flat = flat_grads(ct)
            return Tensor(np.stack(
                [np.broadcast_to(np.asarray(g), (batch,)) for g in flat[:n]],
                axis=1,
            ))

        def vjp_params(ct: Tensor) -> Tensor:
            flat = flat_grads(ct)
            return Tensor(np.asarray(flat[n:], dtype=np.float64))

        return make_node(
            z_data, [(angles, vjp_angles), (self.params, vjp_params)]
        )

    def forward(self, activations: Tensor) -> Tensor:
        """Per-qubit ⟨Z⟩ readout, shape ``(batch, n_qubits)``."""
        if self.grad_method != "backprop":
            return self._forward_measured(activations)
        return pauli_z_expectations(self.run_state(activations))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"QuantumLayer(ansatz={self.ansatz.name!r}, qubits={self.n_qubits}, "
            f"layers={self.n_layers}, scaling={self.scaling!r}, "
            f"params={self.ansatz.param_count}, precision={self.precision!r})"
        )
