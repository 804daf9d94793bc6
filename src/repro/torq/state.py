"""Batched statevector representation and gate-application primitives.

This is the heart of TorQ's speed claim: the state of *every collocation
point* is held in one tensor of shape ``(batch, 2, 2, ..., 2)`` (one axis
per qubit) and every gate is a handful of whole-array operations, instead of
looping circuits point-by-point like the naive/default.qubit-style baseline
(:mod:`repro.torq.reference`).  Axis ``q + 1`` corresponds to qubit ``q``.

All primitives operate on :class:`~repro.torq.complexnum.ComplexTensor`
states and are differentiable (twice) with respect to both gate angles and
any tensors the angles were computed from.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .. import autodiff as ad
from .. import obs
from ..autodiff import Tensor, as_tensor
from . import complexnum as cplx
from .complexnum import ComplexTensor

__all__ = [
    "QuantumState",
    "zero_state",
    "zero_cache_info",
    "zero_planes_into",
    "apply_single_qubit",
    "apply_rx",
    "apply_ry",
    "apply_rz",
    "apply_rot",
    "apply_phase_on",
    "apply_cnot",
    "apply_crz",
    "apply_hadamard",
    "apply_x",
    "apply_y",
    "apply_z",
]


class QuantumState:
    """A batch of pure ``n_qubits``-qubit states.

    ``tensor`` has shape ``(batch, 2, ..., 2)``; helper accessors expose the
    flat ``(batch, 2**n)`` amplitude view and probabilities.
    """

    __slots__ = ("tensor", "n_qubits", "batch")

    def __init__(self, tensor: ComplexTensor, n_qubits: int):
        expected = (tensor.shape[0],) + (2,) * n_qubits
        if tensor.shape != expected:
            raise ValueError(
                f"state tensor shape {tensor.shape} != expected {expected}"
            )
        self.tensor = tensor
        self.n_qubits = int(n_qubits)
        self.batch = int(tensor.shape[0])

    def amplitudes(self) -> ComplexTensor:
        """Flat amplitude view of shape ``(batch, 2**n_qubits)``."""
        return self.tensor.reshape((self.batch, 2 ** self.n_qubits))

    def probabilities(self) -> Tensor:
        """Born probabilities, shape ``(batch, 2**n_qubits)``."""
        return self.amplitudes().abs2()

    def norm2(self) -> Tensor:
        """Total probability per batch element (should be 1)."""
        return ad.tensor_sum(self.probabilities(), axis=1)

    def numpy(self) -> np.ndarray:
        """Detached complex amplitudes, shape ``(batch, 2**n_qubits)``."""
        return self.amplitudes().numpy()


#: Frozen |0...0⟩ base arrays keyed on ``(batch, n_qubits, dtype)``.  Gate
#: primitives never write in place (every op allocates its output), so the
#: same read-only buffers can seed every forward call — copy-on-write in
#: effect, without the copy.  Small LRU: training loops reuse a handful of
#: batch shapes, and one stale shape must not pin memory forever.
_ZERO_CACHE: "OrderedDict[tuple[int, int], tuple[np.ndarray, np.ndarray]]" = (
    OrderedDict()
)
_ZERO_CACHE_MAX = 8
# The cached bases are read-only, but the OrderedDict itself is not:
# concurrent serve executors looking up different batch shapes must not
# corrupt its links mid-eviction.
_zero_cache_lock = threading.Lock()


def _clear_zero_cache() -> None:
    """Drop cached zero-state bases (test hook)."""
    with _zero_cache_lock:
        _ZERO_CACHE.clear()


def zero_cache_info() -> dict:
    """Cache statistics: ``{"size", "capacity"}``."""
    with _zero_cache_lock:
        return {"size": len(_ZERO_CACHE), "capacity": _ZERO_CACHE_MAX}


def zero_state(batch: int, n_qubits: int) -> QuantumState:
    """|0...0⟩ replicated over the batch.

    The underlying float64 re/im arrays are cached per ``(batch,
    n_qubits)`` and marked read-only; repeated calls share one allocation
    instead of zero-filling a fresh ``batch × 2**n`` buffer every forward
    pass.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    key = (int(batch), int(n_qubits))
    with _zero_cache_lock:
        cached = _ZERO_CACHE.get(key)
        if cached is not None:
            _ZERO_CACHE.move_to_end(key)
        else:
            re = np.zeros((batch,) + (2,) * n_qubits)
            re[(slice(None),) + (0,) * n_qubits] = 1.0
            im = np.zeros_like(re)
            re.flags.writeable = False
            im.flags.writeable = False
            if len(_ZERO_CACHE) >= _ZERO_CACHE_MAX:
                _ZERO_CACHE.popitem(last=False)
            _ZERO_CACHE[key] = cached = (re, im)
    if obs.is_profiling():
        obs.metrics().counter("torq.state.alloc", n_qubits=n_qubits).inc()
        obs.metrics().histogram("torq.state.batch").observe(batch)
    re, im = cached
    return QuantumState(ComplexTensor(Tensor(re), Tensor(im)), n_qubits)


def zero_planes_into(re: np.ndarray, im: np.ndarray) -> None:
    """Write |0...0⟩ into caller-owned ``(batch, 2, ..., 2)`` planes.

    The in-place counterpart of :func:`zero_state` for executors that
    own their statevector memory (the lowered memory-planned arena):
    same amplitude placement, zero allocations.  ``re``/``im`` must be
    batched plane arrays of matching shape.
    """
    if re.shape != im.shape or re.ndim < 2:
        raise ValueError(
            f"expected matching batched planes, got {re.shape}/{im.shape}"
        )
    n_qubits = re.ndim - 1
    re.fill(0.0)
    im.fill(0.0)
    re[(slice(None),) + (0,) * n_qubits] = 1.0


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _axis(state: QuantumState, qubit: int) -> int:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    return qubit + 1


def _half_index(state: QuantumState, axis: int, value: int) -> tuple:
    index = [slice(None)] * (state.n_qubits + 1)
    index[axis] = value
    return tuple(index)


def _bcast_angle(theta, target_ndim: int) -> Tensor:
    """Reshape a scalar or per-batch angle for broadcasting over qubit axes.

    Scalars broadcast natively; per-batch angles of shape ``(batch,)`` are
    reshaped to ``(batch, 1, ..., 1)`` to align with a sliced state of
    ``target_ndim`` dimensions.
    """
    theta = as_tensor(theta)
    if theta.ndim == 0:
        return theta
    if theta.ndim != 1:
        raise ValueError("angles must be scalar or per-batch 1-D")
    return ad.reshape(theta, (theta.shape[0],) + (1,) * (target_ndim - 1))


def _split(state: QuantumState, qubit: int) -> tuple[ComplexTensor, ComplexTensor, int]:
    axis = _axis(state, qubit)
    a0 = state.tensor[_half_index(state, axis, 0)]
    a1 = state.tensor[_half_index(state, axis, 1)]
    return a0, a1, axis


def _combine(state: QuantumState, a0: ComplexTensor, a1: ComplexTensor, axis: int) -> QuantumState:
    return QuantumState(cplx.stack([a0, a1], axis=axis), state.n_qubits)


# ----------------------------------------------------------------------
# General single-qubit gate
# ----------------------------------------------------------------------

def apply_single_qubit(
    state: QuantumState,
    qubit: int,
    u00: ComplexTensor,
    u01: ComplexTensor,
    u10: ComplexTensor,
    u11: ComplexTensor,
) -> QuantumState:
    """Apply a 2×2 unitary (entries broadcastable over the sliced state)."""
    a0, a1, axis = _split(state, qubit)
    n0 = u00 * a0 + u01 * a1
    n1 = u10 * a0 + u11 * a1
    return _combine(state, n0, n1, axis)


# ----------------------------------------------------------------------
# Rotation gates (scalar or per-batch angles)
# ----------------------------------------------------------------------

def apply_rx(state: QuantumState, qubit: int, theta) -> QuantumState:
    """RX(θ) = [[cos θ/2, −i sin θ/2], [−i sin θ/2, cos θ/2]]."""
    a0, a1, axis = _split(state, qubit)
    half = _bcast_angle(theta, a0.ndim) * 0.5
    c, s = ad.cos(half), ad.sin(half)
    # −i s * a = (s*a.im, −s*a.re)
    n0 = ComplexTensor(a0.re * c + a1.im * s, a0.im * c - a1.re * s)
    n1 = ComplexTensor(a1.re * c + a0.im * s, a1.im * c - a0.re * s)
    return _combine(state, n0, n1, axis)


def apply_ry(state: QuantumState, qubit: int, theta) -> QuantumState:
    """RY(θ) = [[cos θ/2, −sin θ/2], [sin θ/2, cos θ/2]]."""
    a0, a1, axis = _split(state, qubit)
    half = _bcast_angle(theta, a0.ndim) * 0.5
    c, s = ad.cos(half), ad.sin(half)
    n0 = ComplexTensor(a0.re * c - a1.re * s, a0.im * c - a1.im * s)
    n1 = ComplexTensor(a0.re * s + a1.re * c, a0.im * s + a1.im * c)
    return _combine(state, n0, n1, axis)


def apply_rz(state: QuantumState, qubit: int, theta) -> QuantumState:
    """RZ(θ) = diag(e^{−iθ/2}, e^{+iθ/2})."""
    a0, a1, axis = _split(state, qubit)
    half = _bcast_angle(theta, a0.ndim) * 0.5
    c, s = ad.cos(half), ad.sin(half)
    n0 = ComplexTensor(a0.re * c + a0.im * s, a0.im * c - a0.re * s)  # ×e^{−iθ/2}
    n1 = ComplexTensor(a1.re * c - a1.im * s, a1.im * c + a1.re * s)  # ×e^{+iθ/2}
    return _combine(state, n0, n1, axis)


def apply_rot(state: QuantumState, qubit: int, alpha, beta, gamma) -> QuantumState:
    """Arbitrary Bloch rotation Rot(α, β, γ) = RZ(γ) RY(β) RZ(α) (Eq. 30).

    Fused into a single 2×2 complex matrix–vector product: the matrix
    entries are built from *scalar* (or per-batch) tensor ops, so the cost
    on state-sized arrays is one general gate application instead of three
    sequential rotations —

        U = [[e^{−i(α+γ)/2} cos(β/2),  −e^{+i(α−γ)/2} sin(β/2)],
             [e^{−i(α−γ)/2} sin(β/2),   e^{+i(α+γ)/2} cos(β/2)]].
    """
    a0, a1, axis = _split(state, qubit)
    alpha = _bcast_angle(alpha, a0.ndim)
    beta = _bcast_angle(beta, a0.ndim)
    gamma = _bcast_angle(gamma, a0.ndim)
    plus = (alpha + gamma) * 0.5
    minus = (alpha - gamma) * 0.5
    c = ad.cos(beta * 0.5)
    s = ad.sin(beta * 0.5)
    cp, sp = ad.cos(plus), ad.sin(plus)
    cm, sm = ad.cos(minus), ad.sin(minus)
    u00 = ComplexTensor(cp * c, -(sp * c))
    u01 = ComplexTensor(-(cm * s), -(sm * s))
    u10 = ComplexTensor(cm * s, -(sm * s))
    u11 = ComplexTensor(cp * c, sp * c)
    n0 = u00 * a0 + u01 * a1
    n1 = u10 * a0 + u11 * a1
    return _combine(state, n0, n1, axis)


def apply_phase_on(state: QuantumState, qubit: int, value: int, theta) -> QuantumState:
    """Multiply the ``qubit == value`` half of the state by e^{iθ}."""
    a0, a1, axis = _split(state, qubit)
    target = a0 if value == 0 else a1
    angle = _bcast_angle(theta, target.ndim)
    phased = target * cplx.expi(angle)
    if value == 0:
        return _combine(state, phased, a1, axis)
    return _combine(state, a0, phased, axis)


# ----------------------------------------------------------------------
# Fixed gates
# ----------------------------------------------------------------------

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def apply_hadamard(state: QuantumState, qubit: int) -> QuantumState:
    a0, a1, axis = _split(state, qubit)
    n0 = (a0 + a1) * _INV_SQRT2
    n1 = (a0 - a1) * _INV_SQRT2
    return _combine(state, n0, n1, axis)


def apply_x(state: QuantumState, qubit: int) -> QuantumState:
    """Pauli-X: flip the qubit axis."""
    axis = _axis(state, qubit)
    return QuantumState(state.tensor.flip(axis), state.n_qubits)


def apply_y(state: QuantumState, qubit: int) -> QuantumState:
    """Pauli-Y = i X Z: flip axis and phase the halves."""
    a0, a1, axis = _split(state, qubit)
    # Y|0⟩ = i|1⟩, Y|1⟩ = −i|0⟩  →  n0 = −i a1, n1 = i a0
    n0 = ComplexTensor(a1.im, -a1.re)
    n1 = ComplexTensor(-a0.im, a0.re)
    return _combine(state, n0, n1, axis)


def apply_z(state: QuantumState, qubit: int) -> QuantumState:
    a0, a1, axis = _split(state, qubit)
    return _combine(state, a0, -a1, axis)


# ----------------------------------------------------------------------
# Two-qubit gates
# ----------------------------------------------------------------------

def apply_cnot(state: QuantumState, control: int, target: int) -> QuantumState:
    """CNOT: X on ``target`` within the ``control = 1`` subspace."""
    if control == target:
        raise ValueError("control and target must differ")
    caxis = _axis(state, control)
    c0 = state.tensor[_half_index(state, caxis, 0)]
    c1 = state.tensor[_half_index(state, caxis, 1)]
    # After slicing away the control axis, the target axis index shifts
    # down by one when it lay beyond the control axis.
    taxis = _axis(state, target)
    taxis_in_slice = taxis - 1 if taxis > caxis else taxis
    c1 = c1.flip(taxis_in_slice)
    return _combine(state, c0, c1, caxis)


def apply_crz(state: QuantumState, control: int, target: int, theta) -> QuantumState:
    """Controlled-RZ: diag(1, 1, e^{−iθ/2}, e^{+iθ/2}) on (control, target)."""
    if control == target:
        raise ValueError("control and target must differ")
    caxis = _axis(state, control)
    c0 = state.tensor[_half_index(state, caxis, 0)]
    c1 = state.tensor[_half_index(state, caxis, 1)]
    taxis = _axis(state, target)
    taxis_in_slice = taxis - 1 if taxis > caxis else taxis

    tindex0 = [slice(None)] * c1.ndim
    tindex0[taxis_in_slice] = 0
    tindex1 = [slice(None)] * c1.ndim
    tindex1[taxis_in_slice] = 1
    t0 = c1[tuple(tindex0)]
    t1 = c1[tuple(tindex1)]
    half = _bcast_angle(theta, t0.ndim) * 0.5
    t0 = t0 * cplx.expi(-half)
    t1 = t1 * cplx.expi(half)
    c1 = cplx.stack([t0, t1], axis=taxis_in_slice)
    return _combine(state, c0, c1, caxis)
