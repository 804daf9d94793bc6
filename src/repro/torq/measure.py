"""Measurements: per-qubit Pauli-Z expectation values.

The paper reads out one ⟨Z⟩ per qubit (each qubit acting as a "neuron").
Expectations are computed analytically from the statevector — the paper's
noiseless, no-shots setting — and remain differentiable.  A finite-shot
sampling estimator is provided for hardware-realism experiments.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from .state import QuantumState, _axis

__all__ = [
    "pauli_z_expectations",
    "sampled_z_expectations",
    "marginal_probability",
    "pauli_string_expectation",
]


def _marginal(probs: Tensor, n_qubits: int, qubit: int) -> Tensor:
    """``(batch, 2)`` marginal of ``qubit`` from Born probabilities
    shaped ``(batch, 2, ..., 2)``."""
    axes = tuple(ax for ax in range(1, n_qubits + 1) if ax != qubit + 1)
    return ad.tensor_sum(probs, axis=axes) if axes else probs


def marginal_probability(state: QuantumState, qubit: int) -> Tensor:
    """Marginal distribution of one qubit, shape ``(batch, 2)``."""
    _axis(state, qubit)  # raises on an out-of-range qubit
    return _marginal(state.tensor.abs2(), state.n_qubits, qubit)


def pauli_z_expectations(state: QuantumState) -> Tensor:
    """Analytic ⟨Z_q⟩ for every qubit, shape ``(batch, n_qubits)``.

    ⟨Z⟩ = P(qubit = 0) − P(qubit = 1); local observables, as emphasised in
    the paper's barren-plateau discussion.  The state is squared once and
    every qubit's marginal is reduced from that one |ψ|² array (the same
    reduction :func:`marginal_probability` performs, so the values match
    it bit for bit).
    """
    probs = state.tensor.abs2()
    outputs = []
    for q in range(state.n_qubits):
        marg = _marginal(probs, state.n_qubits, q)
        outputs.append(marg[:, 0] - marg[:, 1])
    return ad.stack(outputs, axis=1)


def sampled_z_expectations(
    state: QuantumState, shots: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Finite-shot ⟨Z⟩ estimate (non-differentiable; hardware emulation).

    Draws ``shots`` computational-basis samples per batch element from the
    Born distribution and estimates each qubit's ⟨Z⟩ from the bit marginals.
    This is what replaces the analytic readout on real devices (paper §3).
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    probs = state.probabilities().data
    probs = probs / probs.sum(axis=1, keepdims=True)
    batch, dim = probs.shape
    n = state.n_qubits
    expectations = np.empty((batch, n))
    # Vectorise over the batch by sampling categorical outcomes per row.
    cumulative = np.cumsum(probs, axis=1)
    u = rng.random((batch, shots))
    outcomes = (u[:, :, None] > cumulative[:, None, :]).sum(axis=2)  # (batch, shots)
    for q in range(n):
        # Bit value of qubit q in each sampled basis index (qubit 0 is the
        # most significant axis of the state tensor).
        bit = (outcomes >> (n - 1 - q)) & 1
        expectations[:, q] = 1.0 - 2.0 * bit.mean(axis=1)
    return expectations


def pauli_string_expectation(state: QuantumState, pauli: str) -> Tensor:
    """⟨P⟩ for an arbitrary Pauli string, e.g. ``"ZIXY"`` (one letter per
    qubit, qubit 0 first).

    Computed as Re⟨ψ|P|ψ⟩ by applying the string's single-qubit operators
    to the state and taking the overlap — fully differentiable, and exact
    for any multi-qubit correlator (the quantities entanglement witnesses
    and richer observables are built from).
    """
    from .state import apply_x, apply_y, apply_z

    pauli = pauli.upper()
    if len(pauli) != state.n_qubits:
        raise ValueError(
            f"Pauli string length {len(pauli)} != {state.n_qubits} qubits"
        )
    transformed = state
    for q, letter in enumerate(pauli):
        if letter == "I":
            continue
        if letter == "X":
            transformed = apply_x(transformed, q)
        elif letter == "Y":
            transformed = apply_y(transformed, q)
        elif letter == "Z":
            transformed = apply_z(transformed, q)
        else:
            raise ValueError(f"invalid Pauli letter {letter!r} in {pauli!r}")
    psi = state.amplitudes()
    phi = transformed.amplitudes()
    # Re⟨ψ|φ⟩ = Σ (re_ψ re_φ + im_ψ im_φ)
    return ad.tensor_sum(psi.re * phi.re + psi.im * phi.im, axis=1)
