"""Parameter-shift gradients (paper §2.3's hardware-compatible method).

On real hardware backpropagation through the statevector is impossible;
gradients of circuit expectations are instead obtained from extra circuit
evaluations at shifted parameters:

* gates generated by half-Pauli generators (RX/RY/RZ and each Rot angle)
  obey the two-term rule  f'(θ) = [f(θ+π/2) − f(θ−π/2)] / 2;
* controlled rotations (CRZ) have generator spectrum {0, ±1/2}, producing
  expectation frequencies {1/2, 1}; they need the four-term rule
  (Anselmetti et al. 2021):

      f'(θ) = d₊ [f(θ+π/2) − f(θ−π/2)] − d₋ [f(θ+3π/2) − f(θ−3π/2)],
      d± = (√2 ± 1) / (4 √2).

The implementation is backend-agnostic: it only needs a forward function
plus the gate sequence (an :class:`Ansatz` or any ``GateSpec`` iterable,
including :meth:`Circuit.gate_sequence`) to classify each parameter.
Forwards may be scalar- or array-valued (per-batch / per-qubit
expectations); the gradient gains the matching trailing shape.

Two evaluation strategies are provided:

* :func:`parameter_shift_grad` — one forward call per shifted parameter
  vector (2–4 per parameter), the faithful hardware execution model;
* :func:`batched_parameter_shift_grad` — all shifted parameter vectors
  stacked into one ``(n_shifts, n_params)`` matrix and evaluated in a
  *single* batched forward.  On the TorQ simulator each shifted
  configuration becomes one batch element (see
  :func:`make_batched_ansatz_forward`), turning O(P) sequential circuit
  executions into one whole-array pass.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .ansatz import Ansatz, GateSpec

__all__ = [
    "parameter_shift_grad",
    "batched_parameter_shift_grad",
    "batched_state_shift_vjp",
    "classify_parameters",
    "shift_table",
    "make_batched_ansatz_forward",
]

_TWO_TERM_GATES = {"rx", "ry", "rz", "rot"}
_D_PLUS = (np.sqrt(2.0) + 1.0) / (4.0 * np.sqrt(2.0))
_D_MINUS = (np.sqrt(2.0) - 1.0) / (4.0 * np.sqrt(2.0))

#: (delta, weight) pairs per rule: grad_i = Σ weight · f(params + delta·e_i)
_RULE_TERMS = {
    "two": ((np.pi / 2, 0.5), (-np.pi / 2, -0.5)),
    "four": (
        (np.pi / 2, _D_PLUS),
        (-np.pi / 2, -_D_PLUS),
        (3 * np.pi / 2, -_D_MINUS),
        (-3 * np.pi / 2, _D_MINUS),
    ),
}


def classify_parameters(gates: Sequence[GateSpec], n_params: int) -> list[str]:
    """Map each flat parameter index to its shift rule ('two' or 'four')."""
    rules = [None] * n_params
    for gate in gates:
        rule = "two" if gate.name in _TWO_TERM_GATES else "four"
        for idx in gate.params:
            if rules[idx] is not None and rules[idx] != rule:
                raise ValueError(f"parameter {idx} shared across shift rules")
            rules[idx] = rule
    missing = [i for i, r in enumerate(rules) if r is None]
    if missing:
        raise ValueError(f"parameters with no owning gate: {missing}")
    return rules


def shift_table(rules: Sequence[str]) -> list[tuple[int, float, float]]:
    """Flatten shift rules into evaluation rows ``(index, delta, weight)``.

    The gradient of parameter ``i`` is the weighted sum of the forward
    evaluated at ``params + delta·e_i`` over that parameter's rows —
    2 rows for the two-term rule, 4 for the four-term rule.
    """
    rows: list[tuple[int, float, float]] = []
    for i, rule in enumerate(rules):
        for delta, weight in _RULE_TERMS[rule]:
            rows.append((i, delta, weight))
    return rows


def _gates_of(ansatz) -> tuple[GateSpec, ...]:
    return ansatz.gate_sequence() if isinstance(ansatz, Ansatz) else tuple(ansatz)


def parameter_shift_grad(
    forward: Callable[[np.ndarray], object],
    params: np.ndarray,
    ansatz: Ansatz | Sequence[GateSpec],
) -> np.ndarray:
    """Exact gradient of ``forward(params)`` via sequential parameter shifts.

    ``forward`` must be an expectation-valued function of circuit
    parameters (trigonometric in each parameter); the result is exact up to
    floating-point error, not a finite-difference approximation.  The
    forward may return a scalar or an array (e.g. per-batch or per-qubit
    expectations); the gradient has shape ``(n_params,) + value_shape``.
    """
    gates = _gates_of(ansatz)
    params = np.asarray(params, dtype=np.float64)
    rules = classify_parameters(gates, params.shape[0])
    grad = None
    for i, delta, weight in shift_table(rules):
        shifted = params.copy()
        shifted[i] += delta
        value = np.asarray(forward(shifted), dtype=np.float64)
        if grad is None:
            grad = np.zeros((params.shape[0],) + value.shape)
        grad[i] += weight * value
    return grad


def batched_parameter_shift_grad(
    forward: Callable[[np.ndarray], object],
    params: np.ndarray,
    ansatz: Ansatz | Sequence[GateSpec],
) -> np.ndarray:
    """Parameter-shift gradient from ONE batched forward execution.

    ``forward`` receives the full ``(n_shifts, n_params)`` matrix of
    shifted parameter vectors — 2 rows per two-term parameter, 4 per
    four-term parameter — and must return one value per row, shape
    ``(n_shifts,)`` or ``(n_shifts,) + value_shape``.  Identical to
    :func:`parameter_shift_grad` up to floating point, but the O(P)
    sequential circuit executions collapse into a single batched run.
    """
    gates = _gates_of(ansatz)
    params = np.asarray(params, dtype=np.float64)
    rules = classify_parameters(gates, params.shape[0])
    rows = shift_table(rules)
    stacked = np.tile(params, (len(rows), 1))
    for k, (i, delta, _) in enumerate(rows):
        stacked[k, i] += delta
    values = np.asarray(forward(stacked), dtype=np.float64)
    if values.shape[0] != len(rows):
        raise ValueError(
            f"batched forward returned {values.shape[0]} values for "
            f"{len(rows)} shifted parameter vectors"
        )
    grad = np.zeros((params.shape[0],) + values.shape[1:])
    for k, (i, _, weight) in enumerate(rows):
        grad[i] += weight * values[k]
    return grad


def batched_state_shift_vjp(
    gates: Sequence[GateSpec],
    n_qubits: int,
    values: Sequence,
    weights: np.ndarray,
    *,
    plan=None,
) -> list:
    """Parameter-shift gradients of ``Σ_bq weights[b,q]·⟨Z_q⟩_b`` from ONE
    mega-batched plan replay.

    Same contract as :func:`repro.torq.adjoint.adjoint_state_vjp` —
    ``values[i]`` is flat parameter ``i`` (float / 0-d for shared,
    ``(batch,)`` for per-batch), ``weights`` the ``(batch, n_qubits)``
    cotangent on the ⟨Z⟩ readout — so the two gradient backends are
    interchangeable at every caller.  All ``R`` shift rows × ``B`` batch
    elements stack into one ``(R·B)``-batch execution from |0…0⟩, i.e.
    the 2P+1-column cost model the adjoint sweep is benchmarked against.
    """
    from ..autodiff import Tensor, no_grad
    from .compile import compile_gates
    from .measure import pauli_z_expectations
    from .state import zero_state

    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != n_qubits:
        raise ValueError(
            f"weights must be (batch, {n_qubits}), got {weights.shape}"
        )
    batch = weights.shape[0]
    gates = tuple(gates)
    n_params = len(values)
    rules = classify_parameters(gates, n_params)
    rows = shift_table(rules)
    base = np.empty((batch, n_params))
    per_batch = []
    for i, value in enumerate(values):
        data = np.asarray(getattr(value, "data", value), dtype=np.float64)
        per_batch.append(data.ndim == 1)
        base[:, i] = data  # broadcasts scalars over the batch
    stacked = np.tile(base, (len(rows), 1))
    for k, (i, delta, _) in enumerate(rows):
        stacked[k * batch:(k + 1) * batch, i] += delta
    if plan is None:
        plan = compile_gates(gates, n_qubits)
    with no_grad():
        t = Tensor(stacked)
        state = plan.run(zero_state(stacked.shape[0], n_qubits), t)
        z = pauli_z_expectations(state).data
    s = (z.reshape(len(rows), batch, n_qubits) * weights[None]).sum(axis=2)
    grad = np.zeros((n_params, batch))
    for k, (i, _, weight) in enumerate(rows):
        grad[i] += weight * s[k]
    return [
        grad[i].copy() if per_batch[i] else float(grad[i].sum())
        for i in range(n_params)
    ]


def make_batched_ansatz_forward(
    ansatz: Ansatz,
    observable: Callable | None = None,
    compiled: bool = True,
) -> Callable[[np.ndarray], np.ndarray]:
    """A TorQ forward that evaluates many parameter vectors in one run.

    Each row of the ``(k, n_params)`` input becomes one batch element of a
    single statevector execution from |0…0⟩ (per-batch gate angles), so
    the returned function suits both :func:`parameter_shift_grad` (1-D
    input → scalar-shaped output) and
    :func:`batched_parameter_shift_grad` (2-D input → one value per row).
    ``observable`` maps the final state to per-row values; the default is
    the mean per-qubit ⟨Z⟩.
    """
    from ..autodiff import Tensor, no_grad
    from .ansatz import apply_ansatz
    from .measure import pauli_z_expectations
    from .state import zero_state

    def forward(param_rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(param_rows, dtype=np.float64)
        single = rows.ndim == 1
        rows = np.atleast_2d(rows)
        with no_grad():
            state = zero_state(rows.shape[0], ansatz.n_qubits)
            state = apply_ansatz(state, ansatz, Tensor(rows), compiled=compiled)
            if observable is None:
                values = pauli_z_expectations(state).mean(axis=1).data
            else:
                values = np.asarray(observable(state))
        return values[0] if single else values

    return forward
