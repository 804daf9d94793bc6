"""The quantum layer: a PQC usable as a neural-network module (Fig. 2).

Pipeline per forward pass, batched over all collocation points:

    tanh activations (batch, n_qubits)
      → input scaling (Eq. 29)          → rotation angles
      → RX(θ)|0…0⟩ product state        → data-encoded state
      → ansatz layers (Fig. 4)          → variational state
      → per-qubit ⟨Z⟩ readout           → (batch, n_qubits) outputs

Everything is differentiable twice, so the layer can sit inside a PINN
whose loss contains input-derivatives of the network outputs.

Every row shares the ansatz parameters, so on small circuits the layer
runs the ansatz once per forward on the 2ⁿ basis rows instead of on
every row: that gives the transfer matrix ``W(θ)``, and each row's final
state is its real product-state magnitudes times ``W`` — one GEMM over
the batch (see :meth:`QuantumLayer.transfer_matrix`).  Library code that
evaluates one model several times at the same parameters — a loss call's
two forwards, a diagnostic's chunks — does so inside
:func:`transfer_scope`, which builds each layer's ``W`` once.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, make_node, no_grad
from ..nn.module import Module, Parameter
from .ansatz import Ansatz, GateSpec, apply_ansatz, make_ansatz
from .compile import compile_gates
from .complexnum import ComplexTensor
from .embedding import (
    rx_basis_state,
    rx_magnitudes,
    rx_product_state,
    scale_input,
)
from .measure import pauli_z_expectations, row_z_expectations
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

#: Largest circuit whose backprop forward runs through the transfer
#: matrix.  Chosen by circuit size alone, never by batch: serving needs a
#: row's float64 bits to be the same in every bucket, so every bucket
#: must run the same ops.  At 4 strongly entangling layers and batch
#: 1024 the transfer path wins the no-grad forward up to 9 qubits and
#: loses from 10, while its second-order step wins at every size
#: measured (``transfer_sweep`` in ``BENCH_torq.json``).
_TRANSFER_MAX_QUBITS = 9

#: The open :func:`transfer_scope` of each thread: ``cache`` maps
#: ``(id(layer), grad mode)`` to ``(layer, W)``, or is None outside one.
_scope = threading.local()


@contextmanager
def transfer_scope():
    """Build each layer's transfer matrix at most once while open.

    Inside the scope :meth:`QuantumLayer.transfer_matrix` builds ``W``
    once per layer and grad mode and then returns the same tensor, so
    every forward of the scope shares it (and a backward sums the
    cotangents of all its uses).  Library code enters it around work
    that runs at fixed parameters: one loss call
    (:class:`repro.core.losses.MaxwellLoss`), which returns before the
    backward and the optimizer, and the L2 and I_BH diagnostics.  It is
    a scope, not a cache: nothing outlives it, so no parameter update —
    Adam writes ``p.data`` in place — can meet a stale ``W``.  A nested
    entry reuses the outer scope; each thread has its own.
    """
    if getattr(_scope, "cache", None) is not None:
        yield
        return
    _scope.cache = {}
    try:
        yield
    finally:
        _scope.cache = None


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
    """A parametrised quantum circuit as an ``n_qubits → n_qubits`` module.

    The backprop path of a compiled layer with at most
    ``_TRANSFER_MAX_QUBITS`` (9) qubits runs every forward through the
    transfer matrix (:meth:`transfer_matrix`): the ansatz runs on the 2ⁿ
    basis rows only, and the batch sees a few wide GEMMs, in the forward,
    in ``create_graph`` derivative passes and in the second-order
    backward.  Larger circuits, ``compiled=False`` and the adjoint and
    parameter-shift backends run the ansatz gate by gate on every row.
    The two paths agree to rounding, not bitwise.

    ``precision="float32"`` makes the layer inference-only, whatever its
    ``grad_method``: :meth:`forward` runs the lowered float32 plan
    (:mod:`repro.lower`) on every row and returns ⟨Z⟩ with no graph, and
    raises ``RuntimeError`` in grad mode rather than return a zero
    gradient.
    """

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
        self.ansatz = ansatz if isinstance(ansatz, Ansatz) else make_ansatz(
            ansatz, n_qubits=n_qubits, n_layers=n_layers
        )
        self.n_qubits = self.ansatz.n_qubits
        self.n_layers = self.ansatz.n_layers
        self.scaling = str(scaling)
        self.init_strategy = str(init)
        self.compiled = bool(compiled)
        self.grad_method = str(grad_method)
        #: ``"float32"`` makes :meth:`forward` inference-only, through
        #: the lowered planned executor (:mod:`repro.lower`); ``"float64"``
        #: runs ``grad_method``'s path.
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

    def _check_activations(self, activations: Tensor) -> None:
        if activations.ndim != 2 or activations.shape[1] != self.n_qubits:
            raise ValueError(
                f"expected activations of shape (batch, {self.n_qubits}), "
                f"got {activations.shape}"
            )

    @property
    def uses_transfer_matrix(self) -> bool:
        """Whether the backprop path runs through :meth:`transfer_matrix`."""
        return (
            self.grad_method == "backprop"
            and self.compiled
            and self.n_qubits <= _TRANSFER_MAX_QUBITS
        )

    def transfer_matrix(self) -> Tensor:
        """``W(θ)``: the ansatz applied to every RX-phased basis row.

        Row ``b`` holds the re|im parts of (−i)^popcount(b)·U(θ)|b⟩, so
        ``W`` has shape ``(2ⁿ, 2·2ⁿ)``.  The RX product state of a batch
        row is its real magnitudes (:func:`rx_magnitudes`) times the
        phased basis rows, so its final state is ``magnitudes @ W``.  The
        ansatz runs once, on :func:`rx_basis_state`, whatever the batch;
        ``W`` depends on the parameters only, so a frozen model's
        compiled forward folds it into a constant.  Inside a
        :func:`transfer_scope` it is built once per grad mode.
        """
        cache = getattr(_scope, "cache", None)
        if cache is None:
            return self._build_transfer_matrix()
        key = (id(self), ad.is_grad_enabled())
        if key not in cache:  # kept with W, the layer's id stays unique
            cache[key] = (self, self._build_transfer_matrix())
        return cache[key][1]

    def _build_transfer_matrix(self) -> Tensor:
        final = apply_ansatz(
            rx_basis_state(self.n_qubits), self.ansatz, self.params,
            compiled=self.compiled,
        )
        amps = final.amplitudes()
        return ad.concatenate([amps.re, amps.im], axis=1)

    def _final_rows(self, activations: Tensor) -> Tensor:
        """Final states as re|im rows ``(batch, 2·2ⁿ)``: one GEMM."""
        mag = rx_magnitudes(scale_input(self.scaling, activations))
        return ad.matmul(mag, self.transfer_matrix())

    def run_state(self, activations: Tensor) -> QuantumState:
        """Encode activations and run the ansatz, returning the final state."""
        self._check_activations(activations)
        if self.uses_transfer_matrix:
            rows = self._final_rows(activations)
            dim = 2 ** self.n_qubits
            shape = (rows.shape[0],) + (2,) * self.n_qubits
            return QuantumState(ComplexTensor(
                ad.reshape(rows[:, :dim], shape),
                ad.reshape(rows[:, dim:], shape),
            ), self.n_qubits)
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

        self._check_activations(activations)
        n = self.n_qubits
        batch = activations.shape[0]
        gates = self.embedded_gate_sequence()
        plan = compile_gates(gates, n)
        angles = scale_input(self.scaling, activations)  # graph-recorded
        method = self.grad_method
        # The plan run and the analytic VJPs read numbers: plain arrays
        # and floats, not a Tensor per value.
        values = [angles.data[:, q] for q in range(n)]
        values += list(self.params.data)
        with no_grad():
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
                if method == "adjoint":
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

    def _forward_lowered(self, activations: Tensor) -> Tensor:
        """Inference on the float32 tier: ⟨Z⟩ from the lowered plan, as a
        Tensor with no graph."""
        if ad.is_grad_enabled():
            raise RuntimeError(
                f"precision={self.precision!r} is an inference-only tier "
                "with no gradient; call the layer under no_grad(), or use "
                "precision='float64' to train"
            )
        from ..lower import lower_plan

        self._check_activations(activations)
        n = self.n_qubits
        angles = scale_input(self.scaling, activations).data
        values = [angles[:, q] for q in range(n)] + list(self.params.data)
        lowered = lower_plan(self.embedded_gate_sequence(), n)
        return Tensor(lowered.z_expectations(activations.shape[0],
                                             lambda i: values[i]))

    def forward(self, activations: Tensor) -> Tensor:
        """Per-qubit ⟨Z⟩ readout, shape ``(batch, n_qubits)``."""
        if self.precision != "float64":
            return self._forward_lowered(activations)
        if self.grad_method != "backprop":
            return self._forward_measured(activations)
        if self.uses_transfer_matrix:
            self._check_activations(activations)
            return row_z_expectations(
                self._final_rows(activations), self.n_qubits
            )
        return pauli_z_expectations(self.run_state(activations))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"QuantumLayer(ansatz={self.ansatz.name!r}, qubits={self.n_qubits}, "
            f"layers={self.n_layers}, scaling={self.scaling!r}, "
            f"params={self.ansatz.param_count}, precision={self.precision!r})"
        )
