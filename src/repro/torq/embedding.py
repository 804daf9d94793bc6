"""Angle embedding and the paper's five input-scaling schemes (Eq. 29a–e).

The classical trunk ends in a tanh, so the values ``a`` entering the PQC
lie in [-1, 1].  Each scaling maps ``a`` to a rotation angle θ for the RX
embedding; with a Z readout the single-qubit response is ⟨Z⟩ = cos θ, which
is what Fig. 3 analyses:

* ``none``: θ = a              ∈ [-1, 1]
* ``pi``:   θ = aπ             ∈ [-π, π]
* ``bias``: θ = (a+1)π/2       ∈ [0, π]
* ``asin``: θ = arcsin(a)+π/2  ∈ [0, π]   (⟨Z⟩ = −a, sign-flipped identity)
* ``acos``: θ = arccos(a)      ∈ [0, π]   (⟨Z⟩ = a, exact identity)
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, as_tensor
from .complexnum import ComplexTensor
from .state import QuantumState, apply_rx

__all__ = [
    "SCALING_NAMES",
    "scale_input",
    "scaling_fn",
    "angle_embedding",
    "rx_product_state",
    "single_qubit_z_response",
]

_HALF_PI = np.pi / 2.0
# tanh outputs can round to exactly ±1 in floating point, where the
# arcsin/arccos derivative diverges; shrink into the open interval.
_ARC_EPS = 1e-9


def _scale_none(a: Tensor) -> Tensor:
    return a


def _scale_pi(a: Tensor) -> Tensor:
    return a * np.pi


def _scale_bias(a: Tensor) -> Tensor:
    return (a + 1.0) * _HALF_PI


def _scale_asin(a: Tensor) -> Tensor:
    return ad.arcsin(ad.clip(a, -1.0 + _ARC_EPS, 1.0 - _ARC_EPS)) + _HALF_PI


def _scale_acos(a: Tensor) -> Tensor:
    return ad.arccos(ad.clip(a, -1.0 + _ARC_EPS, 1.0 - _ARC_EPS))


_SCALINGS: dict[str, Callable[[Tensor], Tensor]] = {
    "none": _scale_none,
    "pi": _scale_pi,
    "bias": _scale_bias,
    "asin": _scale_asin,
    "acos": _scale_acos,
}

SCALING_NAMES: tuple[str, ...] = tuple(_SCALINGS)


def scaling_fn(name: str) -> Callable[[Tensor], Tensor]:
    """Look up one of the Eq. 29 scalings by name."""
    try:
        return _SCALINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown scaling {name!r}; available: {SCALING_NAMES}"
        ) from None


def scale_input(name: str, a) -> Tensor:
    """Apply scaling ``name`` to activations ``a`` (any shape)."""
    return scaling_fn(name)(as_tensor(a))


def angle_embedding(state: QuantumState, angles: Tensor) -> QuantumState:
    """Rotate qubit ``q`` of ``state`` by RX(angles[:, q]), gate by gate.

    Re-uploading onto a non-product state needs this form; the paper's
    encoding of |0…0⟩ is :func:`rx_product_state`.
    """
    angles = as_tensor(angles)
    if angles.ndim != 2 or angles.shape[1] != state.n_qubits:
        raise ValueError(
            f"angles must be (batch, {state.n_qubits}), got {angles.shape}"
        )
    for q in range(state.n_qubits):
        state = apply_rx(state, q, angles[:, q])
    return state


@lru_cache(maxsize=None)
def _rx_phase(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Re/im of (−i)^popcount(b) per basis state, shaped ``(2,)*n``."""
    index = np.arange(2 ** n_qubits)
    popcount = sum((index >> q) & 1 for q in range(n_qubits)) % 4
    re = np.array([1.0, 0.0, -1.0, 0.0])[popcount].reshape((2,) * n_qubits)
    im = np.array([0.0, -1.0, 0.0, 1.0])[popcount].reshape((2,) * n_qubits)
    re.flags.writeable = False
    im.flags.writeable = False
    return re, im


def rx_product_state(angles: Tensor) -> QuantumState:
    """RX(angles[:, q]) on every qubit ``q`` of |0…0⟩ — the paper's encoding.

    The encoded state is a product state: amplitude ``b`` is
    ∏_q (cos θ_q/2 if b_q = 0 else sin θ_q/2) times the fixed phase
    (−i)^popcount(b).  It is built directly — one outer product per
    qubit (about 2·2ⁿ·batch multiplies) and one multiply by the phase per
    plane — instead of ``n`` full-state RX gates.
    Every RX-embedded amplitude is purely real or purely imaginary, so the
    gate-by-gate form only ever adds exact zeros to these same products,
    taken in the same qubit order: the amplitudes equal
    ``angle_embedding(zero_state(batch, n), angles)`` bit for bit.
    """
    angles = as_tensor(angles)
    if angles.ndim != 2 or angles.shape[1] < 1:
        raise ValueError(f"angles must be (batch, n_qubits), got {angles.shape}")
    batch, n = angles.shape
    half = angles * 0.5
    factors = ad.stack([ad.cos(half), ad.sin(half)], axis=2)  # (batch, n, 2)
    mag = factors[:, 0]
    for q in range(1, n):
        mag = ad.reshape(mag, (batch, -1, 1)) * ad.reshape(
            factors[:, q], (batch, 1, 2)
        )
    mag = ad.reshape(mag, (batch,) + (2,) * n)
    phase_re, phase_im = _rx_phase(n)
    return QuantumState(ComplexTensor(mag * phase_re, mag * phase_im), n)


def single_qubit_z_response(name: str, a: np.ndarray) -> np.ndarray:
    """Analytic ⟨Z⟩ = cos(scale(a)) for Fig. 3's single-qubit analysis."""
    t = scale_input(name, np.asarray(a, dtype=np.float64))
    return np.cos(t.data)
