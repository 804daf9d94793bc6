"""Circuit compilation: fused, cached execution plans for TorQ.

The interpreted executors (:meth:`Circuit.run`, :func:`apply_ansatz`) pay
Python-level per-gate dispatch on every training step: an if-chain per op,
slice tuples rebuilt per call, and one whole-array kernel per gate.  This
module compiles a gate sequence *once* into an :class:`ExecutionPlan` — a
flat list of prepared closures with every index precomputed — and applies
three fusion passes along the way:

* **single-qubit fusion** — runs of single-qubit gates on the same qubit
  (allowing exact commutation past gates on disjoint qubits) collapse into
  one 2×2 unitary.  Constant gates (H/X/Y/Z) are folded numerically at
  compile time; parameterized gates (RX/RY/RZ/Rot) contribute symbolic
  matrix entries that are composed with zero-term pruning at call time, so
  the state-sized work is a single general gate application;

* **diagonal fusion** — runs of diagonal gates (Z/RZ/CRZ, which all
  commute) collapse into one phase mask: the shift angles accumulate into
  a single broadcast tensor and the state is multiplied by ``e^{iθ}`` once
  — the full CRZ mesh of the cross-mesh ansätze becomes *one* kernel;

* **permutation fusion** — runs of X/CNOT gates compose into a single
  relabeling of the computational basis, replayed as one gather
  (:func:`repro.autodiff.ops.permute_last`) whose VJP is the inverse
  gather, with no scatter-add buffering.

Everything else becomes a specialized step that reproduces the
uncompiled backend's arithmetic bit-for-bit with precomputed indices.

Plans are cached process-wide on circuit *structure* (the gate tuple), so
a training loop compiles once and replays every step.  Parameter values
are late-bound through a ``resolve(flat_index) -> angle`` callable, which
is also what makes batched parameter-shift gradients possible: resolving
to per-batch angle vectors executes all shifted parameter sets in one run.

Compilation is on by default (``compiled=True`` on :meth:`Circuit.run`,
:func:`apply_ansatz`, and :class:`QuantumLayer`); pass ``compiled=False``
to fall back to interpreted per-gate dispatch.  A :class:`Circuit`'s
cached plan (like its cached ``gate_sequence()``/``parameter_names()``)
is invalidated automatically when a gate is appended.  Inspect what a
plan does with :meth:`ExecutionPlan.describe` (one record per step: kind,
member gates, qubits) and the cache with :func:`plan_cache_info` /
:func:`clear_plan_cache`.

Observability: plan execution is silent unless :func:`repro.obs.profile`
is active, in which case per-step timers, fused-gate counters, and
plan-cache hit/miss counters are recorded.  Step closures call autodiff
ops through the module namespace at run time (never captured at compile
time), so the profiler's rebinding shims keep attributing op-level time
inside compiled plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Sequence

import numpy as np

from .. import autodiff as ad
from .. import obs
from ..autodiff import Tensor, as_tensor
from . import complexnum as cplx
from .complexnum import ComplexTensor

__all__ = [
    "ExecutionPlan",
    "compile_gates",
    "pin_plan",
    "unpin_plan",
    "clear_plan_cache",
    "plan_cache_info",
]


_SINGLE_QUBIT = {"h", "x", "y", "z", "rx", "ry", "rz", "rot"}
_DIAGONAL = {"z", "rz", "crz"}
_PERMUTATION = {"x", "cnot"}

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_CONST_MATS = {
    "h": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) * _INV_SQRT2,
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}


# ----------------------------------------------------------------------
# Symbolic 2×2 matrix entries
#
# An entry is a ``(re, im)`` pair whose components are ``None`` (an exact
# structural zero), a Python float (compile-time constant), or a Tensor
# (parameter-dependent, possibly per-batch).  Products and sums prune
# zero terms, so composing rotation matrices — which are mostly zeros —
# emits only the graph nodes that carry information.
# ----------------------------------------------------------------------

def _r_mul(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, float) and isinstance(b, float):
        return a * b
    return a * b


def _r_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _r_neg(a):
    return None if a is None else -a


def _e_mul(x, y):
    xr, xi = x
    yr, yi = y
    return (
        _r_add(_r_mul(xr, yr), _r_neg(_r_mul(xi, yi))),
        _r_add(_r_mul(xr, yi), _r_mul(xi, yr)),
    )


def _e_add(x, y):
    return (_r_add(x[0], y[0]), _r_add(x[1], y[1]))


def _mat_mul(a, b):
    """2×2 product A·B of entry 4-tuples ``(e00, e01, e10, e11)``."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        _e_add(_e_mul(a00, b00), _e_mul(a01, b10)),
        _e_add(_e_mul(a00, b01), _e_mul(a01, b11)),
        _e_add(_e_mul(a10, b00), _e_mul(a11, b10)),
        _e_add(_e_mul(a10, b01), _e_mul(a11, b11)),
    )


def _const_entries(mat: np.ndarray):
    """Entry 4-tuple for a constant complex 2×2 matrix (zeros → None)."""
    def entry(z):
        re, im = float(z.real), float(z.imag)
        return (re if re != 0.0 else None, im if im != 0.0 else None)

    return (entry(mat[0, 0]), entry(mat[0, 1]), entry(mat[1, 0]), entry(mat[1, 1]))


def _e_amp(e, a: ComplexTensor):
    """``e * a`` for an entry against a complex amplitude block (or None)."""
    er, ei = e
    if er is None and ei is None:
        return None
    if ei is None:
        if isinstance(er, float):
            if er == 1.0:
                return a
            if er == -1.0:
                return -a
        return ComplexTensor(a.re * er, a.im * er)
    if er is None:
        if isinstance(ei, float):
            if ei == 1.0:
                return a.mul_i()
            if ei == -1.0:
                return ComplexTensor(a.im, -a.re)
        return ComplexTensor(-(a.im * ei), a.re * ei)
    return ComplexTensor(a.re * er - a.im * ei, a.re * ei + a.im * er)


def _row_apply(ea, eb, a: ComplexTensor, b: ComplexTensor) -> ComplexTensor:
    """``ea*a + eb*b`` — one output row of a 2×2 gate application."""
    x = _e_amp(ea, a)
    y = _e_amp(eb, b)
    if x is None:
        if y is None:  # pragma: no cover - impossible for a unitary row
            return ComplexTensor(a.re * 0.0, a.im * 0.0)
        return y
    if y is None:
        return x
    return x + y


def _angle(resolve: Callable, ref: int, bshape: tuple) -> Tensor:
    """Resolve one flat parameter to a broadcast-ready angle tensor.

    Scalars pass through; per-batch 1-D angles gain trailing singleton
    axes (``bshape``) so they broadcast over the qubit axes of the state.
    """
    theta = as_tensor(resolve(ref))
    if theta.ndim == 0:
        return theta
    if theta.ndim != 1:
        raise ValueError("angles must be scalar or per-batch 1-D")
    return ad.reshape(theta, (theta.shape[0],) + bshape)


# -- symbolic matrix builders for parameterized single-qubit gates -------

def _builder_rx(ref: int, bshape: tuple):
    def build(resolve):
        half = _angle(resolve, ref, bshape) * 0.5
        c, ns = ad.cos(half), -ad.sin(half)
        return ((c, None), (None, ns), (None, ns), (c, None))

    return build


def _builder_ry(ref: int, bshape: tuple):
    def build(resolve):
        half = _angle(resolve, ref, bshape) * 0.5
        c, s = ad.cos(half), ad.sin(half)
        return ((c, None), (-s, None), (s, None), (c, None))

    return build


def _builder_rz(ref: int, bshape: tuple):
    def build(resolve):
        half = _angle(resolve, ref, bshape) * 0.5
        c, s = ad.cos(half), ad.sin(half)
        return ((c, -s), (None, None), (None, None), (c, s))

    return build


def _builder_rot(refs: tuple, bshape: tuple):
    a_ref, b_ref, g_ref = refs

    def build(resolve):
        alpha = _angle(resolve, a_ref, bshape)
        beta = _angle(resolve, b_ref, bshape)
        gamma = _angle(resolve, g_ref, bshape)
        plus = (alpha + gamma) * 0.5
        minus = (alpha - gamma) * 0.5
        c, s = ad.cos(beta * 0.5), ad.sin(beta * 0.5)
        cp, sp = ad.cos(plus), ad.sin(plus)
        cm, sm = ad.cos(minus), ad.sin(minus)
        return (
            (cp * c, -(sp * c)),
            (-(cm * s), -(sm * s)),
            (cm * s, -(sm * s)),
            (cp * c, sp * c),
        )

    return build


_PARAM_BUILDERS = {"rx": _builder_rx, "ry": _builder_ry, "rz": _builder_rz}


# ----------------------------------------------------------------------
# Adjoint-sweep support (numpy-native).
#
# The adjoint sweep of :mod:`repro.torq.adjoint` is tape-free by
# construction — every quantity it needs is a closed-form function of the
# current carriers — so the ``adjoint_step`` hooks below work on raw
# ``np.complex128`` statevectors instead of autodiff tensors.  Skipping
# the Tensor/graph-node wrapping entirely is what makes the sweep
# O(1)-in-parameters in *wall time* too: on small batches the per-op
# Python overhead of the graph path would otherwise dominate.
#
# Each parameterized single-qubit factor (RX/RY/RZ; Rot decomposes into
# RZ·RY·RZ) has a closed-form derivative matrix.  The gradient of a
# weighted ⟨Z⟩ readout w.r.t. one factor angle is 2·Re⟨μ|D|ψ⟩ where D is
# the derivative of the *whole* fused step's unitary — suffix·dU·prefix —
# and ⟨μ|·|ψ⟩ reduces to a per-batch 2×2 overlap matrix E computed ONCE
# per step, so every extra parameter costs only 2×2 numeric algebra.
# ----------------------------------------------------------------------

def _np_angle(resolve, ref: int) -> np.ndarray:
    """Resolve one flat parameter to a raw float scalar or ``(batch,)``."""
    theta = resolve(ref)
    return np.asarray(getattr(theta, "data", theta), dtype=np.float64)


def _np_factor_mats(name: str, theta: np.ndarray):
    """``(U, dU/dθ)`` complex matrices for one primitive rotation factor.

    Shapes are ``(2, 2)`` for a scalar angle and ``(batch, 2, 2)`` for a
    per-batch angle vector.
    """
    half = theta * 0.5
    c, s = np.cos(half), np.sin(half)
    u = np.zeros(theta.shape + (2, 2), dtype=np.complex128)
    du = np.zeros_like(u)
    if name == "rx":
        u[..., 0, 0] = c
        u[..., 1, 1] = c
        u[..., 0, 1] = -1j * s
        u[..., 1, 0] = -1j * s
        du[..., 0, 0] = -0.5 * s
        du[..., 1, 1] = -0.5 * s
        du[..., 0, 1] = -0.5j * c
        du[..., 1, 0] = -0.5j * c
    elif name == "ry":
        u[..., 0, 0] = c
        u[..., 1, 1] = c
        u[..., 0, 1] = -s
        u[..., 1, 0] = s
        du[..., 0, 0] = -0.5 * s
        du[..., 1, 1] = -0.5 * s
        du[..., 0, 1] = -0.5 * c
        du[..., 1, 0] = 0.5 * c
    else:  # rz
        u[..., 0, 0] = c - 1j * s
        u[..., 1, 1] = c + 1j * s
        du[..., 0, 0] = -0.5 * s - 0.5j * c
        du[..., 1, 1] = -0.5 * s + 0.5j * c
    return u, du


def _np_dagger(u: np.ndarray) -> np.ndarray:
    """Conjugate transpose U† — the exact inverse of a unitary 2×2."""
    return np.conj(np.swapaxes(u, -1, -2))


def _np_apply_packed(packed: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply a 2×2 (or per-batch ``(B, 2, 2)``) matrix to a state packed
    as ``(batch, pre, 2, post)`` on the target qubit axis."""
    if u.ndim == 2:
        return np.einsum("ij,bpjq->bpiq", u, packed)
    return np.einsum("bij,bpjq->bpiq", u, packed)


# ----------------------------------------------------------------------
# The packed state.  Between fused and permutation steps a plan carries
# the statevector as ONE real tensor of shape ``(batch, 2, ..., 2)``: a
# re/im axis plus one axis per qubit.  Its axis *order* is fixed per step
# when the plan compiles.  An order lists logical axes in physical order
# — 0 is the batch, 1 re/im and ``2 + q`` qubit ``q`` — and the canonical
# order ``(0, 1, ..., n + 1)`` is ``stack([re, im], axis=1)``.  A fused
# step transposes/reshapes the state straight into its GEMM layout and
# leaves the product in that order; a permutation step's gather reads one
# order and writes the next.  Every layout change is thus a transpose, a
# reshape or a gather, whose VJP is the inverse transpose, reshape or
# gather.  Phase-mask and lone-gate steps keep the ComplexTensor planes;
# the plan unpacks and repacks at their boundary.
# ----------------------------------------------------------------------

def _gemm_order(n_qubits: int, qubit: int, rows: bool) -> tuple:
    """Axis order of a fused step's GEMM layout on ``qubit``:
    ``(batch, pre, re/im, qubit, post)`` reshapes to the broadcast
    product's ``(batch, pre, 4, post)``, ``(batch, pre, post, re/im,
    qubit)`` to the row GEMM's ``(batch·pre·post, 4)``."""
    pre = tuple(range(2, qubit + 2))
    post = tuple(range(qubit + 3, n_qubits + 2))
    if rows:
        return (0, *pre, *post, 1, qubit + 2)
    return (0, *pre, 1, qubit + 2, *post)


def _axes(src: tuple, dst: tuple):
    """``transpose`` axes viewing order ``src`` in order ``dst`` (None
    when they are the same order)."""
    return None if src == dst else tuple(src.index(a) for a in dst)


def _relayout(t: Tensor, axes) -> Tensor:
    return t if axes is None else ad.transpose(t, axes)


def _canonical_at(order: tuple) -> np.ndarray:
    """Canonical flat ``(re/im, basis)`` index at each flat position of
    the non-batch axes of a state in ``order``."""
    k = len(order) - 1
    canon = np.arange(2 ** k).reshape((2,) * k)
    return canon.transpose([a - 1 for a in order[1:]]).reshape(-1)


def _pack(state: ComplexTensor) -> Tensor:
    """ComplexTensor planes → the packed state in canonical order."""
    return ad.stack([state.re, state.im], axis=1)


class _Unpack:
    """The packed state in a fixed order → ComplexTensor planes."""

    def __init__(self, order: tuple):
        self._axes = _axes(order, tuple(range(len(order))))

    def __call__(self, packed: Tensor) -> ComplexTensor:
        t = _relayout(packed, self._axes)
        return ComplexTensor(t[:, 0], t[:, 1])


def _bind_layouts(steps: tuple, n_qubits: int):
    """Fix the axis order every packed step receives and emits.

    Returns the boundary conversion to run before each step (``None``,
    :func:`_pack` or an :class:`_Unpack`) and the one after the last.  A
    packed step emits its ``order``: a fused step its GEMM layout, a
    permutation step whatever the next step reads — a fused step's GEMM
    layout, else the canonical order.
    """
    canonical = tuple(range(n_qubits + 2))
    converts = []
    order = None  # None: the state is ComplexTensor planes
    for step, nxt in zip(steps, steps[1:] + (None,)):
        convert = None
        if step.packed:
            if order is None:
                convert, order = _pack, canonical
            wanted = (nxt.order if isinstance(nxt, _FusedSingleQubitStep)
                      else canonical)
            order = step.bind(order, wanted)
        elif order is not None:
            convert, order = _Unpack(order), None
        converts.append(convert)
    return tuple(converts), (None if order is None else _Unpack(order))


# ----------------------------------------------------------------------
# Plan steps.  Each step maps ``(state, resolve) -> state`` with every
# index precomputed at compile time: packed steps (``packed = True``) on
# the packed real tensor, the others on ComplexTensor planes.
# ----------------------------------------------------------------------

def _c_contig(arr: np.ndarray) -> np.ndarray:
    """Force a precomputed buffer C-contiguous at *compile* time.

    Every constant factor buffer a step replays (block matrices,
    coefficient rows, permutation indices) goes through here once, so
    the per-epoch hot loops never hand BLAS or take-based kernels a
    strided array that would trigger a hidden ``ascontiguousarray``
    copy on every call.  The regression test patches
    ``np.ascontiguousarray`` and asserts zero calls during a compiled
    epoch — keep run-time paths free of it.
    """
    out = np.ascontiguousarray(arr)
    assert out.flags["C_CONTIGUOUS"]
    return out


def _half_indices(n_qubits: int, qubit: int) -> tuple[tuple, tuple, int]:
    axis = qubit + 1
    idx0 = [slice(None)] * (n_qubits + 1)
    idx1 = [slice(None)] * (n_qubits + 1)
    idx0[axis] = 0
    idx1[axis] = 1
    return tuple(idx0), tuple(idx1), axis


def _block_matrix(u):
    """Real 4×4 block form ``[[Ur, −Ui], [Ui, Ur]]`` of 2×2 entry tuple ``u``.

    Acting on the packed real vector ``(a0re, a1re, a0im, a1im)`` this
    reproduces the complex 2×2 application as ONE matrix product.  Returns
    a constant ndarray when every entry is known at compile time, else a
    stacked tensor of shape ``(4, 4)`` (scalar params) or ``(batch, 1, 4,
    4)`` (per-batch params) ready to broadcast through ``matmul``.
    """
    e00, e01, e10, e11 = u
    r = (e00[0], e01[0], e10[0], e11[0])
    i = (e00[1], e01[1], e10[1], e11[1])
    slots = (
        (r[0], r[1], _r_neg(i[0]), _r_neg(i[1])),
        (r[2], r[3], _r_neg(i[2]), _r_neg(i[3])),
        (i[0], i[1], r[0], r[1]),
        (i[2], i[3], r[2], r[3]),
    )
    tensors = [v for row in slots for v in row if isinstance(v, Tensor)]
    if not tensors:
        return np.array(
            [[0.0 if v is None else v for v in row] for row in slots]
        )
    batch = next((t.shape[0] for t in tensors if t.ndim == 1), None)

    def lift(v):
        t = as_tensor(0.0 if v is None else v)
        if batch is not None and t.ndim == 0:
            return ad.broadcast_to(t, (batch,))
        return t

    rows = [ad.stack([lift(v) for v in row], axis=-1) for row in slots]
    mat = ad.stack(rows, axis=-2)
    if batch is not None:
        return ad.reshape(mat, (-1, 1, 4, 4))
    return mat


def _row_gemm(m, post: int) -> bool:
    """Whether a fused run applies its block ``m`` as one row GEMM.

    The broadcast product ``m @ (batch, pre, 4, post)`` is ``batch·pre``
    separate GEMMs of width ``post``; when ``post`` is short (below 8)
    that is tens of thousands of tiny kernels per call (and as many outer
    products in the VJP with respect to ``m``).  A batch-independent
    ``(4, 4)`` block then runs instead as ONE ``(batch·pre·post, 4) @ mᵀ``
    GEMM whose rows are the batch.  Both executors of a fused run — the
    plan step here and the lowered float32 executor
    (:mod:`repro.lower.inplace`, which runs the same choice as one
    ``m @ (4, batch·pre·post)`` column GEMM) — decide with this one
    predicate.
    """
    return m.ndim == 2 and post < 8


class _FusedSingleQubitStep:
    """A run of same-qubit single-qubit gates as one block-matrix product.

    The composed 2×2 complex unitary is applied through its real 4×4 block
    form with a single :func:`~repro.autodiff.ops.matmul` over the packed
    state — one BLAS kernel (and one backward node) instead of a dozen
    elementwise operations: broadcast over the ``(batch, pre, 4, post)``
    layout, or, for a batch-independent block over a short ``post``
    stride, as one ``(batch·pre·post, 4)`` row GEMM (:func:`_row_gemm`).
    The step transposes/reshapes the state it receives into that layout
    and emits the product in the layout the shared-parameter (training)
    path runs, ``order``.
    """

    kind = "fused_1q"
    packed = True

    def __init__(self, gates, qubit: int, n_qubits: int):
        self.gates = tuple(g.name for g in gates)
        self.n_gates = len(gates)
        pre = 2 ** qubit
        post = 2 ** (n_qubits - 1 - qubit)
        # ``_pack_shape`` also sizes the lowered tier's planes.
        self._pack_shape = (-1, pre, 2, post)
        self._post = post
        self._gemm_shape = (-1, pre, 4, post)
        self._state_shape = (-1,) + (2,) * (n_qubits + 1)
        self._orders = {
            rows: _gemm_order(n_qubits, qubit, rows) for rows in (False, True)
        }
        self.order = self._orders[_row_gemm(np.eye(4), post)]
        self._to = self._back = None
        # Consecutive constant gates fold numerically at compile time;
        # parameterized gates contribute call-time symbolic builders.  The
        # parallel ``factors`` list carries the same composition at
        # rotation-primitive granularity (Rot → RZ·RY·RZ) so the adjoint
        # sweep can differentiate each angle with the prefix/suffix trick.
        parts: list = []
        factors: list[tuple] = []
        pending: np.ndarray | None = None
        for g in gates:
            if g.name in _CONST_MATS:
                mat = _CONST_MATS[g.name]
                pending = mat if pending is None else mat @ pending
                continue
            if pending is not None:
                parts.append(_const_entries(pending))
                factors.append(("const", pending.copy()))
                pending = None
            if g.name == "rot":
                parts.append(_builder_rot(g.params, ()))
                a_ref, b_ref, g_ref = g.params
                factors.append(("rz", a_ref))
                factors.append(("ry", b_ref))
                factors.append(("rz", g_ref))
            else:
                parts.append(_PARAM_BUILDERS[g.name](g.params[0], ()))
                factors.append((g.name, g.params[0]))
        if pending is not None:
            parts.append(_const_entries(pending))
            factors.append(("const", pending.copy()))
        self._parts = tuple(parts)
        self._factors = tuple(factors)
        self._const_m = (
            _c_contig(_block_matrix(parts[0]))
            if len(parts) == 1 and not callable(parts[0])
            else None
        )
        self._const_np_dag = (
            _c_contig(factors[0][1].conj().T)
            if self._const_m is not None
            else None
        )

    def bind(self, order_in: tuple, order_next: tuple) -> tuple:
        """Fix the order this step receives; returns the order it emits.

        Per-batch angles (batched parameter shift) run the broadcast
        product on a short stride too, and view its output in ``order``.
        """
        self._to = {r: _axes(order_in, o) for r, o in self._orders.items()}
        self._back = {r: _axes(o, self.order) for r, o in self._orders.items()}
        return self.order

    def __call__(self, state: Tensor, resolve) -> Tensor:
        if self._const_m is not None:
            m = self._const_m
        else:
            mats = [p(resolve) if callable(p) else p for p in self._parts]
            u = mats[0]
            for um in mats[1:]:
                u = _mat_mul(um, u)
            m = _block_matrix(u)
        rows = _row_gemm(m, self._post)
        x = _relayout(state, self._to[rows])
        if rows:
            out = ad.matmul(ad.reshape(x, (-1, 4)), ad.transpose(m))
        else:
            out = ad.matmul(m, ad.reshape(x, self._gemm_shape))
        return _relayout(ad.reshape(out, self._state_shape), self._back[rows])

    def adjoint_step(self, psi, mu, resolve, accumulate):
        """Un-apply the step from ψ and μ, accumulating per-angle grads.

        ``psi`` is the raw complex state *after* the step (ψ_k) and ``mu``
        the observable-applied bra carrier (both ``np.complex128``, tape
        free); returns ``(ψ_{k-1}, μ_{k-1})`` and calls ``accumulate(ref,
        g)`` with the per-batch contribution ``2·Re⟨μ_k|∂U/∂θ_ref|ψ_{k-1}⟩``
        for every owned parameter.
        """
        shape = psi.shape
        pp = psi.reshape(self._pack_shape)
        mp = mu.reshape(self._pack_shape)
        if self._const_np_dag is not None:
            return (
                _np_apply_packed(pp, self._const_np_dag).reshape(shape),
                _np_apply_packed(mp, self._const_np_dag).reshape(shape),
            )
        eye = np.eye(2, dtype=np.complex128)
        mats = []
        for kind, payload in self._factors:
            if kind == "const":
                mats.append((payload, None, None))
            else:
                u, du = _np_factor_mats(kind, _np_angle(resolve, payload))
                mats.append((u, du, payload))
        prefixes = [eye]
        for u, _, _ in mats:
            prefixes.append(np.matmul(u, prefixes[-1]))
        udag = _np_dagger(prefixes[-1])
        psi_prev = _np_apply_packed(pp, udag)
        mu_prev = _np_apply_packed(mp, udag)
        # Per-batch 2×2 overlap E_ij = Σ conj(μ_k)_i · (ψ_{k-1})_j, shared
        # by every angle of the run.
        e = np.einsum("bpik,bpjk->bij", np.conj(mp), psi_prev)
        suffix = eye
        for j in range(len(mats) - 1, -1, -1):
            u, du, ref = mats[j]
            if ref is not None:
                d = np.matmul(suffix, np.matmul(du, prefixes[j]))
                if d.ndim == 2:
                    g = 2.0 * np.real(np.einsum("ij,bij->b", d, e))
                else:
                    g = 2.0 * np.real(np.einsum("bij,bij->b", d, e))
                accumulate(ref, g)
            suffix = np.matmul(suffix, u)
        return psi_prev.reshape(shape), mu_prev.reshape(shape)


class _PhaseMaskStep:
    """A run of diagonal gates (Z/RZ/CRZ) as one phase-mask multiply."""

    kind = "phase_mask"
    packed = False

    def __init__(self, gates, n_qubits: int):
        self.gates = tuple(g.name for g in gates)
        self.n_gates = len(gates)
        self._bshape = (1,) * n_qubits
        terms: list[tuple[np.ndarray, int]] = []
        const_mask: np.ndarray | None = None
        for g in gates:
            if g.name == "z":
                coeff = self._axis_values(n_qubits, g.qubits[0], [1.0, -1.0])
                const_mask = coeff if const_mask is None else const_mask * coeff
            elif g.name == "rz":
                terms.append(
                    (self._axis_values(n_qubits, g.qubits[0], [-0.5, 0.5]),
                     g.params[0])
                )
            else:  # crz: phase only where the control bit is 1
                control, target = g.qubits
                bit_c = self._axis_values(n_qubits, control, [0.0, 1.0])
                sign_t = self._axis_values(n_qubits, target, [-0.5, 0.5])
                terms.append((bit_c * sign_t, g.params[0]))
        self._terms = tuple(terms)
        self._const = const_mask
        # Flattened copies for the numpy-native adjoint sweep: one (T, dim)
        # coefficient matrix turns all T per-term gradients into a single
        # matrix product, and the total phase into another.
        dim = 2 ** n_qubits
        full = (1,) + (2,) * n_qubits
        self._flat = (-1, dim)
        self._term_refs = tuple(ref for _, ref in terms)
        self._coeff_flat = (
            _c_contig(
                np.stack(
                    [np.broadcast_to(c, full).reshape(dim) for c, _ in terms]
                )
            )
            if terms
            else None
        )
        self._const_flat = (
            _c_contig(
                np.broadcast_to(const_mask, full)
                .reshape(dim)
                .astype(np.complex128)
            )
            if const_mask is not None
            else None
        )

    @staticmethod
    def _axis_values(n_qubits: int, qubit: int, values) -> np.ndarray:
        shape = [1] * (n_qubits + 1)
        shape[qubit + 1] = 2
        return np.asarray(values, dtype=np.float64).reshape(shape)

    def __call__(self, tensor: ComplexTensor, resolve) -> ComplexTensor:
        total = None
        for coeff, ref in self._terms:
            theta = as_tensor(resolve(ref))
            if theta.ndim == 1:
                theta = ad.reshape(theta, (theta.shape[0],) + self._bshape)
            elif theta.ndim != 0:
                raise ValueError("angles must be scalar or per-batch 1-D")
            term = theta * coeff
            total = term if total is None else total + term
        if total is None:  # all-Z run: the mask is the constant ±1 pattern
            return tensor * self._const
        mask = cplx.expi(total)
        if self._const is not None:
            mask = mask * self._const
        return tensor * mask

    def adjoint_step(self, psi, mu, resolve, accumulate):
        """Un-apply the mask; grads follow from ∂U/∂θ_t = i·C_t·U, so ALL
        terms together cost one ``(B, dim) @ (dim, T)`` product of
        ``Im⟨μ|ψ_k⟩`` against the precomputed coefficient rows."""
        shape = psi.shape
        pf = psi.reshape(self._flat)
        mf = mu.reshape(self._flat)
        if self._term_refs:
            w = (np.conj(pf) * mf).imag
            g = 2.0 * (w @ self._coeff_flat.T)
            for t, ref in enumerate(self._term_refs):
                accumulate(ref, g[:, t])
            vals = [_np_angle(resolve, ref) for ref in self._term_refs]
            if any(v.ndim for v in vals):
                batch = pf.shape[0]
                thetas = np.stack(
                    [np.broadcast_to(v, (batch,)) for v in vals], axis=1
                )
                total = thetas @ self._coeff_flat
            else:
                total = np.asarray(vals) @ self._coeff_flat
            mask = np.exp(-1j * total)
            if self._const_flat is not None:
                mask = mask * self._const_flat
        else:  # all-Z run: the constant ±1 pattern is its own inverse
            mask = self._const_flat
        return (pf * mask).reshape(shape), (mf * mask).reshape(shape)


class _PermutationStep:
    """A run of X/CNOT gates as one relabeling of the basis axis.

    One :func:`~repro.autodiff.ops.permute_last` over both planes of the
    packed state; its index, fixed when the plan compiles, composes the
    relabeling with the order the step reads and the order it writes.
    """

    kind = "permutation"
    packed = True

    def __init__(self, gates, n_qubits: int):
        self.gates = tuple(g.name for g in gates)
        self.n_gates = len(gates)
        n = n_qubits
        dim = 2 ** n
        self._flat_shape = (-1, dim)
        self._packed_shape = (-1, 2 * dim)
        self._state_shape = (-1,) + (2,) * (n + 1)
        idx = np.arange(dim)
        src = idx
        for g in gates:
            if g.name == "x":
                gmap = idx ^ (1 << (n - 1 - g.qubits[0]))
            else:
                control, target = g.qubits
                cmask = 1 << (n - 1 - control)
                tmask = 1 << (n - 1 - target)
                gmap = np.where(idx & cmask, idx ^ tmask, idx)
            src = src[gmap]
        self._src = _c_contig(src)
        self._inv = None
        self.order = self._index = None

    @property
    def _inv_src(self) -> np.ndarray:
        # Only the adjoint needs the inverse relabelling; computed lazily
        # (and cached) so forward-only plans skip the argsort.
        if self._inv is None:
            self._inv = _c_contig(np.argsort(self._src))
        return self._inv

    def bind(self, order_in: tuple, order_next: tuple) -> tuple:
        """Read ``order_in`` and write ``order_next``; returns it."""
        dim = self._src.size
        plane, basis = np.divmod(_canonical_at(order_next), dim)
        where_in = np.argsort(_canonical_at(order_in))
        self._index = _c_contig(where_in[plane * dim + self._src[basis]])
        self.order = order_next
        return order_next

    def __call__(self, state: Tensor, resolve) -> Tensor:
        flat = ad.reshape(state, self._packed_shape)
        return ad.reshape(ad.permute_last(flat, self._index), self._state_shape)

    def adjoint_step(self, psi, mu, resolve, accumulate):
        """Parameter-free: un-relabel both states with the inverse gather.

        ``np.take`` rather than fancy indexing: ``a[:, idx]`` iterates
        the advanced axis outermost and hands back a batch-fastest
        layout, which every later step's reshape would silently copy
        back to C order — take produces the C-contiguous gather
        directly (same values, same order).
        """
        shape = psi.shape
        return (
            np.take(psi.reshape(self._flat_shape), self._inv_src,
                    axis=1).reshape(shape),
            np.take(mu.reshape(self._flat_shape), self._inv_src,
                    axis=1).reshape(shape),
        )


class _SingleGateStep:
    """One unfused gate, replaying the interpreted arithmetic with
    precomputed indices (bit-compatible with the uncompiled path)."""

    kind = "gate"
    packed = False

    def __init__(self, gate, n_qubits: int):
        self.gates = (gate.name,)
        self.n_gates = 1
        self._gate = gate  # the lowered tier rebuilds it as a kernel step
        self._name = gate.name
        self._params = gate.params
        n = n_qubits
        if len(gate.qubits) == 1:
            self._idx0, self._idx1, self._axis = _half_indices(n, gate.qubits[0])
            self._bshape = (1,) * (n - 1)
        else:
            control, target = gate.qubits
            self._idx0, self._idx1, self._axis = _half_indices(n, control)
            taxis = target + 1
            self._taxis = taxis - 1 if taxis > control + 1 else taxis
            tidx0 = [slice(None)] * n
            tidx1 = [slice(None)] * n
            tidx0[self._taxis] = 0
            tidx1[self._taxis] = 1
            self._tidx0, self._tidx1 = tuple(tidx0), tuple(tidx1)
            self._bshape = (1,) * (n - 2)

    def __call__(self, tensor: ComplexTensor, resolve) -> ComplexTensor:
        name = self._name
        if name == "cnot":
            c0 = tensor[self._idx0]
            c1 = tensor[self._idx1].flip(self._taxis)
            return cplx.stack([c0, c1], axis=self._axis)
        if name == "crz":
            c0 = tensor[self._idx0]
            c1 = tensor[self._idx1]
            t0 = c1[self._tidx0]
            t1 = c1[self._tidx1]
            half = _angle(resolve, self._params[0], self._bshape) * 0.5
            t0 = t0 * cplx.expi(-half)
            t1 = t1 * cplx.expi(half)
            c1 = cplx.stack([t0, t1], axis=self._taxis)
            return cplx.stack([c0, c1], axis=self._axis)
        if name == "x":
            return tensor.flip(self._axis)
        a0 = tensor[self._idx0]
        a1 = tensor[self._idx1]
        if name == "h":
            n0 = (a0 + a1) * _INV_SQRT2
            n1 = (a0 - a1) * _INV_SQRT2
        elif name == "y":
            n0 = ComplexTensor(a1.im, -a1.re)
            n1 = ComplexTensor(-a0.im, a0.re)
        elif name == "z":
            n0, n1 = a0, -a1
        elif name == "rx":
            half = _angle(resolve, self._params[0], self._bshape) * 0.5
            c, s = ad.cos(half), ad.sin(half)
            n0 = ComplexTensor(a0.re * c + a1.im * s, a0.im * c - a1.re * s)
            n1 = ComplexTensor(a1.re * c + a0.im * s, a1.im * c - a0.re * s)
        elif name == "ry":
            half = _angle(resolve, self._params[0], self._bshape) * 0.5
            c, s = ad.cos(half), ad.sin(half)
            n0 = ComplexTensor(a0.re * c - a1.re * s, a0.im * c - a1.im * s)
            n1 = ComplexTensor(a0.re * s + a1.re * c, a0.im * s + a1.im * c)
        elif name == "rz":
            half = _angle(resolve, self._params[0], self._bshape) * 0.5
            c, s = ad.cos(half), ad.sin(half)
            n0 = ComplexTensor(a0.re * c + a0.im * s, a0.im * c - a0.re * s)
            n1 = ComplexTensor(a1.re * c - a1.im * s, a1.im * c + a1.re * s)
        elif name == "rot":
            u = _builder_rot(self._params, self._bshape)(resolve)
            n0 = _row_apply(u[0], u[1], a0, a1)
            n1 = _row_apply(u[2], u[3], a0, a1)
        else:  # pragma: no cover - closed gate set
            raise ValueError(f"unknown gate {name!r}")
        return cplx.stack([n0, n1], axis=self._axis)

    def _np_apply(self, t: np.ndarray) -> np.ndarray:
        """Replay a constant (self-adjoint) gate on a raw complex state."""
        name = self._name
        if name == "x":
            # Materialize: a lazy flip view has a negative stride, and
            # the next step's carrier reshape would copy it silently —
            # twice (ψ and μ).  One explicit dense copy here is cheaper.
            return np.flip(t, self._axis).copy()
        if name == "cnot":
            c0 = t[self._idx0]
            c1 = np.flip(t[self._idx1], self._taxis)
            return np.stack([c0, c1], axis=self._axis)
        a0 = t[self._idx0]
        a1 = t[self._idx1]
        if name == "h":
            return np.stack(
                [(a0 + a1) * _INV_SQRT2, (a0 - a1) * _INV_SQRT2],
                axis=self._axis,
            )
        if name == "y":
            return np.stack([-1j * a1, 1j * a0], axis=self._axis)
        return np.stack([a0, -a1], axis=self._axis)  # z

    def _np_apply_2x2(self, t: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Apply a 2×2 (or per-batch) complex matrix on this step's qubit."""
        a0 = t[self._idx0]
        a1 = t[self._idx1]
        if u.ndim == 3:
            shp = (-1,) + self._bshape
            u00 = u[:, 0, 0].reshape(shp)
            u01 = u[:, 0, 1].reshape(shp)
            u10 = u[:, 1, 0].reshape(shp)
            u11 = u[:, 1, 1].reshape(shp)
        else:
            u00, u01, u10, u11 = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
        return np.stack(
            [u00 * a0 + u01 * a1, u10 * a0 + u11 * a1], axis=self._axis
        )

    def adjoint_step(self, psi, mu, resolve, accumulate):
        """Un-apply one gate; rotation angles get the ⟨μ|dU|ψ⟩ overlap
        gradient, CRZ the diagonal-generator rule, constants only invert."""
        name = self._name
        if name in ("h", "x", "y", "z", "cnot"):
            # All self-adjoint (Y† = Y), so the forward application IS the
            # inverse — replay it on both carriers.
            return self._np_apply(psi), self._np_apply(mu)
        if name == "crz":
            # ∂U/∂θ = i·C·U with C = ∓1/2 on the control=1 target halves,
            # evaluated against ψ_k before un-phasing.
            p1 = psi[self._idx1]
            m1 = mu[self._idx1]
            w = (np.conj(p1) * m1).imag
            w0 = w[self._tidx0]
            w1 = w[self._tidx1]
            axes = tuple(range(1, w0.ndim))
            accumulate(self._params[0], (w1 - w0).sum(axis=axes))
            half = _np_angle(resolve, self._params[0]) * 0.5
            if half.ndim:
                half = half.reshape((-1,) + self._bshape)
            e_pos = np.cos(half) + 1j * np.sin(half)
            out = []
            for t in (psi, mu):
                c0 = t[self._idx0]
                c1 = t[self._idx1]
                t0 = c1[self._tidx0] * e_pos
                t1 = c1[self._tidx1] * np.conj(e_pos)
                c1 = np.stack([t0, t1], axis=self._taxis)
                out.append(np.stack([c0, c1], axis=self._axis))
            return out[0], out[1]
        # rx / ry / rz (lone rot gates compile to the fused step)
        u, du = _np_factor_mats(name, _np_angle(resolve, self._params[0]))
        psi_prev = self._np_apply_2x2(psi, _np_dagger(u))
        mu_prev = self._np_apply_2x2(mu, _np_dagger(u))
        b = psi.shape[0]
        m = np.stack([mu[self._idx0], mu[self._idx1]], axis=1).reshape(b, 2, -1)
        p = np.stack(
            [psi_prev[self._idx0], psi_prev[self._idx1]], axis=1
        ).reshape(b, 2, -1)
        e = np.einsum("bik,bjk->bij", np.conj(m), p)
        if du.ndim == 2:
            g = 2.0 * np.real(np.einsum("ij,bij->b", du, e))
        else:
            g = 2.0 * np.real(np.einsum("bij,bij->b", du, e))
        accumulate(self._params[0], g)
        return psi_prev, mu_prev


# ----------------------------------------------------------------------
# Segmentation: greedy grouping with exact commutation
# ----------------------------------------------------------------------

class _Group:
    __slots__ = ("kind", "qubit", "gates", "support")

    def __init__(self, kind: str, qubit, gate, support):
        self.kind = kind
        self.qubit = qubit
        self.gates = [gate]
        self.support = set(support)


def _join_kind(gate, group: _Group) -> str | None:
    """Kind the group takes if ``gate`` joins it, or None if incompatible."""
    name = gate.name
    if (
        name in _SINGLE_QUBIT
        and group.kind == "1q"
        and group.qubit == gate.qubits[0]
    ):
        return "1q"
    if name in _DIAGONAL:
        if group.kind == "diag":
            return "diag"
        if group.kind == "1q" and all(g.name in _DIAGONAL for g in group.gates):
            return "diag"
    if name in _PERMUTATION:
        if group.kind == "perm":
            return "perm"
        if group.kind == "1q" and all(g.name in _PERMUTATION for g in group.gates):
            return "perm"
    return None


def _segment(gates) -> list[_Group]:
    """Group gates greedily, commuting each gate left past groups whose
    qubit support is disjoint (an exact identity on tensor products)."""
    groups: list[_Group] = []
    for gate in gates:
        support = set(gate.qubits)
        joined = None
        new_kind = None
        for group in reversed(groups):
            kind = _join_kind(gate, group)
            if kind is not None:
                joined, new_kind = group, kind
                break
            if group.support & support:
                break
        if joined is not None:
            joined.kind = new_kind
            if new_kind != "1q":
                joined.qubit = None
            joined.gates.append(gate)
            joined.support |= support
        elif gate.name in _SINGLE_QUBIT:
            groups.append(_Group("1q", gate.qubits[0], gate, support))
        elif gate.name == "crz":
            groups.append(_Group("diag", None, gate, support))
        elif gate.name == "cnot":
            groups.append(_Group("perm", None, gate, support))
        else:  # pragma: no cover - closed gate set
            raise ValueError(f"unknown gate {gate.name!r}")
    return groups


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------

class ExecutionPlan:
    """A compiled gate sequence: prepared steps replayed per execution.

    Compiling fixes the packed-state axis order at every step boundary
    (:func:`_bind_layouts`), so a run is a plain loop over prepared steps.
    """

    def __init__(self, steps: tuple, n_qubits: int, n_gates: int):
        self.steps = steps
        self.n_qubits = n_qubits
        self.n_gates = n_gates
        self._converts, self._exit = _bind_layouts(steps, n_qubits)

    @property
    def num_steps(self) -> int:
        """Number of kernel launches per execution (≤ ``n_gates``)."""
        return len(self.steps)

    @property
    def fused_gates(self) -> int:
        """How many gate applications fusion eliminated."""
        return self.n_gates - len(self.steps)

    def describe(self) -> list[dict]:
        """Human-readable step list (kind + member gates) for inspection."""
        return [
            {"kind": s.kind, "gates": list(s.gates)} for s in self.steps
        ]

    def run(self, state, resolve: Callable[[int], object]):
        """Execute the plan on a :class:`QuantumState`.

        ``resolve`` maps a flat parameter index to its value: a float, a
        0-d tensor, or a per-batch 1-D tensor (which is how batched
        parameter-shift executes every shifted parameter set at once).
        Under :func:`repro.obs.profile` the same steps run, each timed.
        """
        from .state import QuantumState  # deferred: state does not import us

        if not obs.is_profiling():
            tensor = self._execute(state.tensor, resolve, None)
            return QuantumState(tensor, self.n_qubits)
        # Same metric families as the interpreted path (torq.gates /
        # torq.circuit.batch / torq.apply) so dashboards and tests see one
        # vocabulary; fused steps are timed under their step kind.
        reg = obs.metrics()
        reg.counter("torq.plan.replay").inc()
        reg.histogram("torq.circuit.batch").observe(state.batch)
        with reg.scope("torq.plan.run", n_qubits=self.n_qubits):
            tensor = self._execute(state.tensor, resolve, reg)
        return QuantumState(tensor, self.n_qubits)

    def step_states(self, state, resolve: Callable[[int], object]):
        """Run the plan, yielding the state after every step as
        :class:`ComplexTensor` planes (the per-step view
        :func:`repro.lower.audit_plan` compares)."""
        for step, x in self._walk(state.tensor, resolve, None):
            yield _Unpack(step.order)(x) if step.packed else x

    def _execute(self, x, resolve, reg) -> ComplexTensor:
        for _, x in self._walk(x, resolve, reg):
            pass
        return x if self._exit is None else self._exit(x)

    def _walk(self, x, resolve, reg):
        """The step loop: yields ``(step, state)`` after each step, timing
        each one into ``reg`` when given."""
        for step, convert in zip(self.steps, self._converts):
            if convert is not None:
                x = convert(x)
            if reg is None:
                x = step(x, resolve)
            else:
                for name in step.gates:
                    reg.counter("torq.gates", gate=name).inc()
                reg.counter("torq.plan.steps", kind=step.kind).inc()
                label = step.gates[0] if step.n_gates == 1 else step.kind
                with reg.timer("torq.apply", gate=label).time():
                    x = step(x, resolve)
            yield step, x

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionPlan(n_qubits={self.n_qubits}, gates={self.n_gates}, "
            f"steps={self.num_steps})"
        )


def _compile(gates, n_qubits: int) -> ExecutionPlan:
    steps = []
    for group in _segment(gates):
        if len(group.gates) == 1 and group.gates[0].name == "rot":
            # A lone Rot is the hot path of the paper's ansätze; the
            # block-matrix application beats the elementwise arithmetic.
            steps.append(
                _FusedSingleQubitStep(group.gates, group.qubit, n_qubits)
            )
        elif len(group.gates) == 1 and group.kind in ("1q", "diag", "perm"):
            steps.append(_SingleGateStep(group.gates[0], n_qubits))
        elif group.kind == "1q":
            steps.append(_FusedSingleQubitStep(group.gates, group.qubit, n_qubits))
        elif group.kind == "diag":
            steps.append(_PhaseMaskStep(group.gates, n_qubits))
        else:
            steps.append(_PermutationStep(group.gates, n_qubits))
    return ExecutionPlan(tuple(steps), n_qubits, sum(1 for _ in gates))


_PLAN_CACHE: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
_PLAN_CACHE_MAX = 512
# Guards the cache dict, the counters, and the pinned set together: the
# serve path compiles/looks up plans from executor threads concurrently
# with the asyncio front end reading stats.
_plan_cache_lock = threading.RLock()
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0
#: structure keys exempt from LRU eviction (a frozen model's warm plans
#: must survive unrelated compile traffic; see :func:`pin_plan`).
_PINNED_KEYS: set = set()


def _plan_key(gates: tuple, n_qubits: int) -> tuple:
    return (n_qubits, tuple((g.name, g.qubits, g.params) for g in gates))


def compile_gates(gates: Sequence, n_qubits: int, cache: bool = True) -> ExecutionPlan:
    """Compile a gate sequence (``GateSpec``-like records with flat integer
    parameter indices) into a cached :class:`ExecutionPlan`.

    Plans are keyed on circuit *structure* — gate names, qubits, and
    parameter indices — so circuits that differ only in parameter values
    share one plan and replay it every training step.  The cache evicts
    least-recently-used plans once full (pinned plans are skipped — see
    :func:`pin_plan`); hit/miss/eviction counts surface
    through :func:`plan_cache_info` and (when profiling is active) the
    ``torq.plan.cache`` counters of the :mod:`repro.obs` registry.
    Thread-safe: lookups, insertion, and statistics share one lock.
    """
    global _cache_hits, _cache_misses, _cache_evictions
    gates = tuple(gates)
    if not cache:
        return _compile(gates, n_qubits)
    key = _plan_key(gates, n_qubits)
    with _plan_cache_lock:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            _cache_hits += 1
            if obs.is_profiling():
                obs.metrics().counter("torq.plan.cache", outcome="hit").inc()
            return plan
        _cache_misses += 1
    if obs.is_profiling():
        obs.metrics().counter("torq.plan.cache", outcome="miss").inc()
    plan = _compile(gates, n_qubits)
    with _plan_cache_lock:
        existing = _PLAN_CACHE.get(key)
        if existing is not None:
            # Another thread compiled the same structure while we were;
            # keep the first plan so every caller shares one object.
            _PLAN_CACHE.move_to_end(key)
            return existing
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            for victim in _PLAN_CACHE:
                if victim not in _PINNED_KEYS:
                    del _PLAN_CACHE[victim]  # least recently used
                    _cache_evictions += 1
                    if obs.is_profiling():
                        obs.metrics().counter(
                            "torq.plan.cache", outcome="eviction"
                        ).inc()
                    break
        _PLAN_CACHE[key] = plan
    if obs.is_profiling():
        obs.metrics().counter("torq.plan.compiled").inc()
        obs.metrics().counter("torq.plan.fused_gates").inc(plan.fused_gates)
    return plan


def pin_plan(gates: Sequence, n_qubits: int) -> ExecutionPlan:
    """Compile + cache a plan and exempt it from LRU eviction.

    Serving warmup pins the frozen model's plans so a burst of unrelated
    ``compile_gates`` traffic can never evict them and reintroduce
    compilation into the request path.  Returns the (shared) plan.
    Unpin by key via :func:`unpin_plan`; :func:`clear_plan_cache` drops
    all pins.
    """
    gates = tuple(gates)
    plan = compile_gates(gates, n_qubits, cache=True)
    with _plan_cache_lock:
        _PINNED_KEYS.add(_plan_key(gates, n_qubits))
    return plan


def unpin_plan(gates: Sequence, n_qubits: int) -> bool:
    """Remove a pin added by :func:`pin_plan`; returns whether it existed."""
    with _plan_cache_lock:
        try:
            _PINNED_KEYS.remove(_plan_key(tuple(gates), n_qubits))
            return True
        except KeyError:
            return False


def clear_plan_cache() -> None:
    """Drop every cached plan, pin, and hit/miss/eviction statistic."""
    global _cache_hits, _cache_misses, _cache_evictions
    with _plan_cache_lock:
        _PLAN_CACHE.clear()
        _PINNED_KEYS.clear()
        _cache_hits = 0
        _cache_misses = 0
        _cache_evictions = 0


def plan_cache_info() -> dict:
    """Cache statistics: ``{"size", "capacity", "hits", "misses",
    "evictions", "pinned"}``."""
    with _plan_cache_lock:
        return {
            "size": len(_PLAN_CACHE),
            "capacity": _PLAN_CACHE_MAX,
            "hits": _cache_hits,
            "misses": _cache_misses,
            "evictions": _cache_evictions,
            "pinned": len(_PINNED_KEYS),
        }
