"""Adjoint-method gradients: all-parameter analytic derivatives from one
forward sweep plus one reverse sweep of a compiled plan.

TorQ offers three gradient backends for circuit expectations, selectable
via ``QuantumLayer(grad_method=...)``:

* **backprop** (default) — reverse-mode autodiff through the statevector
  simulation.  Exact, supports higher-order derivatives (``create_graph``,
  which PDE residual losses need to differentiate the network output with
  respect to its *inputs*), but records one graph node per kernel and holds
  every intermediate state alive for the backward pass — the memory cost
  grows with circuit depth.

* **parameter_shift** — the hardware-compatible method (paper §2.3): each
  parameter's derivative comes from extra circuit executions at shifted
  angles.  :func:`~repro.torq.shift.batched_parameter_shift_grad` packs all
  ``2P`` two-term (and ``4P`` four-term) shifted parameter sets into one
  batched replay, but the work is still O(P) circuit columns — ~197 columns
  per gradient at the Table 2 workload's 98 parameters.

* **adjoint** (this module) — the statevector-simulator trick (Jones &
  Gacon, arXiv:2009.02823): because the simulator can hold ⟨b| and |ψ⟩ and
  *un-apply* unitaries exactly, every derivative falls out of a single
  backward walk over the circuit.  Run the forward once, form the
  observable-applied bra λ = O|ψ_N⟩, then iterate steps in reverse::

      ψ_{k-1} = U_k† ψ_k
      g_k     = 2·Re⟨μ_k| ∂U_k/∂θ_k |ψ_{k-1}⟩
      μ_{k-1} = U_k† μ_k

  O(#gates + P) work total instead of O(P·#gates), no shift table, and —
  the whole sweep runs under ``no_grad`` — no autodiff tape in memory.
  Like parameter-shift it is first-order only: it produces *numeric*
  gradients, so losses that need derivatives *through* the gradient
  (``create_graph=True``) must use backprop.

The fused plan steps of :mod:`repro.torq.compile` each implement
``adjoint_step(psi, mu, gates, accumulate)`` — the exact inverse of the
step applied to both carriers, plus per-parameter derivative contributions
(``gates`` is the plan's gate table evaluated once for the sweep):
fused single-qubit runs differentiate factor-by-factor through a 2×2
prefix/suffix decomposition against a per-batch overlap matrix computed
once per step; diagonal phase masks and CRZ use the diagonal-generator
shortcut ∂U/∂θ = i·C·U; permutations invert with the argsort gather.

The observable is the paper's readout — per-qubit ⟨Z_q⟩ — generalised to an
arbitrary per-batch weighting so one sweep serves both loss gradients and
:class:`~repro.torq.layer.QuantumLayer`'s vector-Jacobian products.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import obs
from ..autodiff import no_grad
from .ansatz import Ansatz, GateSpec
from .compile import compile_gates
from .state import QuantumState, zero_state

__all__ = ["adjoint_state_vjp", "adjoint_grad"]


def _z_weight_mask(weights: np.ndarray, n_qubits: int) -> np.ndarray:
    """Dense mask of the weighted-Z observable Σ_q w_bq·Z_q.

    Each Z_q is diagonal (±1 along qubit axis ``q``); their weighted sum is
    one real ``(batch, 2, ..., 2)`` array, so applying the observable to
    |ψ⟩ is a single elementwise multiply regardless of the cotangent.
    """
    batch = weights.shape[0]
    mask = np.zeros((batch,) + (2,) * n_qubits)
    bshape = (batch,) + (1,) * n_qubits
    for q in range(n_qubits):
        shape = [1] * (n_qubits + 1)
        shape[q + 1] = 2
        sign = np.array([1.0, -1.0]).reshape(shape)
        mask += weights[:, q].reshape(bshape) * sign
    return mask


class _GradientSums:
    """The gradient bookkeeping of one adjoint reverse sweep
    (:func:`adjoint_state_vjp`): validates the ``(batch, n_qubits)``
    readout cotangent ``weights``, sums each flat parameter's
    ``accumulate(ref, g)`` contributions in call order, and formats one
    gradient per entry of ``values``.
    """

    def __init__(self, values: Sequence, weights, n_qubits: int):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != n_qubits:
            raise ValueError(
                f"weights must be (batch, {n_qubits}), got {weights.shape}"
            )
        self.values = values
        self.weights = weights
        self.batch = weights.shape[0]
        self._sums: dict[int, object] = {}

    def accumulate(self, ref: int, g) -> None:
        prev = self._sums.get(ref)
        self._sums[ref] = g if prev is None else prev + g

    def gradients(self) -> list:
        """A float per shared value (summed over the batch), a
        ``(batch,)`` array per per-batch value, zero for a parameter no
        gate owns."""
        out = []
        for i, value in enumerate(self.values):
            g = self._sums.get(i)
            if g is None:  # parameter owned by no gate in this circuit
                data = np.zeros(self.batch)
            else:
                data = np.broadcast_to(
                    np.asarray(g, dtype=np.float64), (self.batch,)
                )
            per_batch = getattr(value, "ndim", 0) == 1
            out.append(data.copy() if per_batch else float(data.sum()))
        return out


def adjoint_state_vjp(
    gates: Sequence[GateSpec],
    n_qubits: int,
    values: Sequence,
    weights: np.ndarray,
    *,
    plan=None,
    final_state: QuantumState | None = None,
) -> list:
    """Gradients of ``Σ_bq weights[b,q]·⟨Z_q⟩_b`` for every flat parameter.

    ``values[i]`` is the resolved value of flat parameter ``i``: a float /
    0-d tensor (shared across the batch) or a ``(batch,)`` array/tensor
    (per-batch angles).  ``weights`` is the ``(batch, n_qubits)`` cotangent
    on the per-qubit ⟨Z⟩ readout — pass ones to get plain expectation-sum
    gradients, or an upstream cotangent to get a vector-Jacobian product.

    Returns one gradient per entry of ``values``: a float for shared
    parameters (summed over the batch) or a ``(batch,)`` ndarray for
    per-batch ones.  ``plan`` and ``final_state`` let callers reuse an
    already-compiled plan and an already-run forward state, reducing the
    cost to the single reverse sweep.
    """
    grads = _GradientSums(values, weights, n_qubits)
    batch = grads.batch
    if plan is None:
        plan = compile_gates(gates, n_qubits)

    def resolve(i: int):
        return values[i]

    profiling = obs.is_profiling()
    reg = obs.metrics() if profiling else None
    with no_grad():
        if final_state is None:
            if profiling:
                reg.counter("torq.adjoint.sweep", direction="forward").inc()
            final_state = plan.run(zero_state(batch, n_qubits), resolve)
        tensor = final_state.tensor
        if tensor.shape[0] != batch:
            raise ValueError(
                f"final state batch {tensor.shape[0]} != weights batch {batch}"
            )
        # The sweep itself is raw numpy: carriers are np.complex128 arrays
        # and resolve hands the steps plain floats / (batch,) float arrays
        # — no tape, no Tensor wrapping (see the adjoint_step contract in
        # repro.torq.compile).
        # The reverse sweep reshapes the carriers into packed factor
        # views every step; a strided carrier (a final flip view, whose
        # layout ufuncs would propagate) would silently copy per step.
        # Building the complex carrier by plane assignment into a fresh
        # buffer is dense by construction, whatever layout the plan's
        # last step left the planes in.
        re = np.asarray(tensor.re.data)
        psi = np.empty(re.shape, dtype=np.complex128)
        psi.real = re
        psi.imag = tensor.im.data
        mu = psi * _z_weight_mask(grads.weights, n_qubits)
        assert psi.flags["C_CONTIGUOUS"] and mu.flags["C_CONTIGUOUS"]

    def resolve_np(i: int):
        v = values[i]
        return getattr(v, "data", v)

    gates = plan._table.numpy(resolve_np)
    if profiling:
        reg.counter("torq.adjoint.sweep", direction="reverse").inc()
        with reg.scope("torq.adjoint.run", n_qubits=n_qubits):
            for step in reversed(plan.steps):
                with reg.timer("torq.adjoint.step", kind=step.kind).time():
                    psi, mu = step.adjoint_step(
                        psi, mu, gates, grads.accumulate
                    )
    else:
        for step in reversed(plan.steps):
            psi, mu = step.adjoint_step(psi, mu, gates, grads.accumulate)
    return grads.gradients()


def adjoint_grad(
    ansatz: Ansatz | Sequence[GateSpec],
    params: np.ndarray,
    n_qubits: int | None = None,
    observable_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Adjoint gradient of the mean per-qubit ⟨Z⟩ from |0…0⟩.

    Drop-in analogue of :func:`~repro.torq.shift.parameter_shift_grad`'s
    default observable: for 1-D ``params`` of shape ``(P,)`` returns the
    ``(P,)`` gradient; for a 2-D ``(K, P)`` stack every row is an
    independent parameter set evaluated in one batch, returning ``(K, P)``.
    ``observable_weights`` overrides the per-qubit weighting (default
    ``1/n_qubits`` each, i.e. the mean ⟨Z⟩).
    """
    if isinstance(ansatz, Ansatz):
        gates = ansatz.gate_sequence()
        n_qubits = ansatz.n_qubits
    else:
        gates = tuple(ansatz)
        if n_qubits is None:
            raise ValueError("n_qubits is required for a raw gate sequence")
    params = np.asarray(params, dtype=np.float64)
    single = params.ndim == 1
    rows = np.atleast_2d(params)
    k, p = rows.shape
    if observable_weights is None:
        observable_weights = np.full(n_qubits, 1.0 / n_qubits)
    weights = np.broadcast_to(
        np.asarray(observable_weights, dtype=np.float64), (k, n_qubits)
    )
    if single:
        values = [float(rows[0, i]) for i in range(p)]
    else:
        values = [rows[:, i] for i in range(p)]
    grads = adjoint_state_vjp(gates, n_qubits, values, weights)
    if single:
        return np.array([float(g) for g in grads])
    return np.stack(grads, axis=1)
