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
  compile time; parameterized gates (RX/RY/RZ/Rot) become rotation
  factors of the plan's gate table, which builds every run's block from
  one cos and one sin of all the angles per execution, so the
  state-sized work is a single general gate application;

* **diagonal fusion** — runs of diagonal gates (Z/RZ/CRZ, which all
  commute) collapse into one phase mask: the shift angles accumulate into
  a single broadcast tensor and the state is multiplied by ``e^{iθ}`` once
  — the full CRZ mesh of the cross-mesh ansätze becomes *one* kernel;

* **permutation fusion** — runs of X/CNOT gates compose into a single
  relabeling of the computational basis, replayed as one gather
  (:func:`repro.autodiff.ops.permute_last`) whose VJP is the inverse
  gather, with no scatter-add buffering.

These three kernels are the only step kinds: a gate no run absorbs
becomes the one-gate step of its kind (a lone single-qubit gate a
fused step, a lone CRZ a phase mask, a lone CNOT a permutation).

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

import functools
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


#: Generators of the rotation factors: ``R(θ) = cos(θ/2)·I + sin(θ/2)·G``.
_GENERATORS = {
    "rx": np.array([[0.0, -1.0j], [-1.0j, 0.0]]),
    "ry": np.array([[0.0, -1.0], [1.0, 0.0]], dtype=np.complex128),
    "rz": np.array([[-1.0j, 0.0], [0.0, 1.0j]]),
}
_EYE2 = np.eye(2, dtype=np.complex128)


def _real_block(u: np.ndarray) -> np.ndarray:
    """Real 4×4 block form ``[[Ur, −Ui], [Ui, Ur]]`` of a complex 2×2 (or
    per-batch ``(B, 2, 2)``) matrix, ready to broadcast through matmul.

    Acting on the packed real vector ``(a0re, a1re, a0im, a1im)`` it
    reproduces the complex 2×2 application as one real matrix product.
    """
    ur, ui = u.real, u.imag
    top = np.concatenate([ur, -ui], axis=-1)
    bot = np.concatenate([ui, ur], axis=-1)
    m = np.concatenate([top, bot], axis=-2)
    if m.ndim == 3:
        return m.reshape(-1, 1, 4, 4)
    return m


#: Per rotation kind, the sign of each entry of its real block ``c·I +
#: s·G``: the block forms of ``I`` and ``G`` never share an entry, so
#: every entry is ``c`` (the diagonal), ``±s`` or 0.
_SIGNS = {k: np.eye(4) + _real_block(g) for k, g in _GENERATORS.items()}
_ON_COS = np.eye(4, dtype=bool)


def _factor_maps(kinds):
    """Gather index and sign, ``(F, 4, 4)``, of the real blocks of the
    rotations ``kinds`` from their ``concatenate([cos, sin])`` (``2F``)."""
    f = np.arange(len(kinds))[:, None, None]
    return (np.where(_ON_COS, f, len(kinds) + f),
            np.stack([_SIGNS[k] for k in kinds]) if kinds
            else np.zeros((0, 4, 4)))


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
# RZ·RY·RZ) has a closed-form derivative matrix, dU(θ) = ½·U(θ+π), which
# the plan's gate table (:class:`_NumpyGates`) gives with U from one cos
# and one sin per sweep.  The gradient of a weighted ⟨Z⟩ readout w.r.t.
# one factor angle is 2·Re⟨μ|D|ψ⟩ where D is the derivative of the
# *whole* fused step's unitary — suffix·dU·prefix — and ⟨μ|·|ψ⟩ reduces
# to a per-batch 2×2 overlap matrix E computed ONCE per step, so every
# extra parameter costs only 2×2 numeric algebra.
# ----------------------------------------------------------------------

def _np_angle(resolve, ref: int) -> np.ndarray:
    """Resolve one flat parameter to a raw float scalar or ``(batch,)``."""
    theta = resolve(ref)
    return np.asarray(getattr(theta, "data", theta), dtype=np.float64)


# ----------------------------------------------------------------------
# The packed state.  A plan carries the statevector through every step
# as ONE real tensor of shape ``(batch, 2, ..., 2)``: a re/im axis plus
# one axis per qubit.  Its axis *order* is fixed per step when the plan
# compiles.  An order lists logical axes in physical order — 0 is the
# batch, 1 re/im and ``2 + q`` qubit ``q`` — and the canonical order
# ``(0, 1, ..., n + 1)`` is ``stack([re, im], axis=1)``.  A fused step
# transposes/reshapes the state straight into its GEMM layout and leaves
# the product in that order; a permutation step's gather reads one order
# and writes the next; a phase mask views the planes of the order it
# reads and stacks its product in the canonical order.  Every layout
# change is thus a transpose, a reshape, a gather or a stack, whose VJP
# is the inverse.  The plan packs once on entry and unpacks once on exit.
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


def _bind_layouts(steps: tuple, n_qubits: int) -> _Unpack:
    """Fix the axis order every step receives and emits; returns the
    unpack of the last step's order.  A fused step emits its GEMM
    layout, a phase mask the canonical order, a permutation step
    whatever the next step reads — a fused step's GEMM layout, else the
    canonical order."""
    canonical = order = tuple(range(n_qubits + 2))
    for step, nxt in zip(steps, steps[1:] + (None,)):
        wanted = (nxt.order if isinstance(nxt, _FusedSingleQubitStep)
                  else canonical)
        order = step.bind(order, wanted)
    return _Unpack(order)


# ----------------------------------------------------------------------
# Plan steps.  Each step maps the packed state ``(state, operand) ->
# state`` with every index precomputed at compile time.  A fused step's
# operand is its block from the gate table, any other step's the
# ``resolve`` callable.
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
    path runs, ``order``.  A step with rotation factors is called with
    its block from the plan's :class:`_GateTable`; a constant run with
    its compile-time block ``_const_m``.
    """

    kind = "fused_1q"

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
        # The run at rotation-primitive granularity (Rot → RZ·RY·RZ), in
        # application order: consecutive constant gates fold numerically
        # at compile time into one ``("const", U)`` factor, every rotation
        # is a ``(kind, flat parameter index)`` factor of the gate table.
        factors: list[tuple] = []
        pending: np.ndarray | None = None
        for g in gates:
            if g.name in _CONST_MATS:
                mat = _CONST_MATS[g.name]
                pending = mat if pending is None else mat @ pending
                continue
            if pending is not None:
                factors.append(("const", pending.copy()))
                pending = None
            if g.name == "rot":
                factors.extend(zip(("rz", "ry", "rz"), g.params))
            else:
                factors.append((g.name, g.params[0]))
        if pending is not None:
            factors.append(("const", pending.copy()))
        self._factors = tuple(factors)
        const = len(factors) == 1 and factors[0][0] == "const"
        self._const_m = _c_contig(_real_block(factors[0][1])) if const else None
        self._const_np_dag = (
            _c_contig(factors[0][1].conj().T) if const else None
        )

    def bind(self, order_in: tuple, order_next: tuple) -> tuple:
        """Fix the order this step receives; returns the order it emits.

        Per-batch angles (batched parameter shift) run the broadcast
        product on a short stride too, and view its output in ``order``.
        """
        self._to = {r: _axes(order_in, o) for r, o in self._orders.items()}
        self._back = {r: _axes(o, self.order) for r, o in self._orders.items()}
        return self.order

    def __call__(self, state: Tensor, m) -> Tensor:
        """Apply block ``m``: ``(4, 4)``, or ``(batch, 1, 4, 4)``."""
        rows = _row_gemm(m, self._post)
        x = _relayout(state, self._to[rows])
        if rows:
            out = ad.matmul(ad.reshape(x, (-1, 4)), ad.transpose(m))
        else:
            out = ad.matmul(m, ad.reshape(x, self._gemm_shape))
        return _relayout(ad.reshape(out, self._state_shape), self._back[rows])

    def adjoint_step(self, psi, mu, gates, accumulate):
        """Un-apply the step from ψ and μ, accumulating per-angle grads.

        ``psi`` is the raw complex state *after* the step (ψ_k) and ``mu``
        the observable-applied bra carrier (both ``np.complex128``, tape
        free); ``gates`` is the sweep's :class:`_NumpyGates`.  Returns
        ``(ψ_{k-1}, μ_{k-1})`` and calls ``accumulate(ref, g)`` with the
        per-batch contribution ``2·Re⟨μ_k|∂U/∂θ_ref|ψ_{k-1}⟩`` for every
        owned parameter.
        """
        if self._const_np_dag is not None:
            udag, derivatives = self._const_np_dag, ()
        else:
            udag, derivatives = gates.derivatives(self)
        return _unapply(self._pack_shape, psi, mu, udag, derivatives,
                        accumulate)


def _unapply(pack_shape, psi, mu, udag, derivatives, accumulate):
    """Apply U† (``(2, 2)`` or per-batch ``(B, 2, 2)``) to ψ and μ,
    packed as ``(batch, pre, 2, post)`` on its qubit, and accumulate
    ``2·Re⟨μ_k|D|ψ_{k-1}⟩`` for every ``(ref, D)`` of ``derivatives``."""
    shape = psi.shape
    pp = psi.reshape(pack_shape)
    mp = mu.reshape(pack_shape)
    spec = "ij,bpjq->bpiq" if udag.ndim == 2 else "bij,bpjq->bpiq"
    psi_prev = np.einsum(spec, udag, pp)
    mu_prev = np.einsum(spec, udag, mp)
    if derivatives:
        # Per-batch 2×2 overlap E_ij = Σ conj(μ_k)_i · (ψ_{k-1})_j,
        # shared by every angle of the run.
        e = np.einsum("bpik,bpjk->bij", np.conj(mp), psi_prev)
        for ref, d in derivatives:
            accumulate(ref, _overlap_grad(d, e))
    return psi_prev.reshape(shape), mu_prev.reshape(shape)


def _overlap_grad(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``2·Re Σ_ij D_ij·E_bij`` per batch row, for a shared ``(2, 2)`` or
    per-batch ``(B, 2, 2)`` derivative ``D`` against the overlap ``E``."""
    if d.ndim == 2:
        return 2.0 * np.real(np.einsum("ij,bij->b", d, e))
    return 2.0 * np.real(np.einsum("bij,bij->b", d, e))


class _PhaseMaskStep:
    """A run of diagonal gates (Z/RZ/CRZ) as one phase-mask multiply.

    It views the re/im planes of the order it reads, multiplies them by
    the mask and stacks the product in the canonical order.
    """

    kind = "phase_mask"

    def __init__(self, gates, n_qubits: int):
        self.gates = tuple(g.name for g in gates)
        self.n_gates = len(gates)
        self._bshape = (1,) * n_qubits
        self.order = tuple(range(n_qubits + 2))
        self._unpack = None
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

    def bind(self, order_in: tuple, order_next: tuple) -> tuple:
        """Read ``order_in``; returns the canonical order it emits."""
        self._unpack = _Unpack(order_in)
        return self.order

    def __call__(self, state: Tensor, resolve) -> Tensor:
        tensor = self._unpack(state)
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
            return _pack(tensor * self._const)
        mask = cplx.expi(total)
        if self._const is not None:
            mask = mask * self._const
        return _pack(tensor * mask)

    def adjoint_step(self, psi, mu, gates, accumulate):
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
            vals = [_np_angle(gates.resolve, ref) for ref in self._term_refs]
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

    def adjoint_step(self, psi, mu, gates, accumulate):
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


# ----------------------------------------------------------------------
# The gate table: the one place a plan turns rotation angles into
# matrices.  Every rotation factor of its fused steps (a lone rotation
# is a one-gate fused step) is listed once, when the plan compiles, with
# its kind and flat parameter index.  A run gathers the angles, takes one
# cos and one sin of the half angles, and builds every fused block from
# those two arrays; the adjoint sweep and the lowered tier read U (and
# the sweep dU) from the same cos and sin in NumPy.
# ----------------------------------------------------------------------

def _resolver(resolve):
    """``(callable, flat tensor or None)`` for a plan's ``resolve``: a
    ``ref -> value`` callable, or the flat parameter tensor itself
    (``(P,)`` shared or ``(batch, P)`` per batch), which the table
    gathers in one op."""
    if callable(resolve):
        return resolve, None
    params = as_tensor(resolve)
    if params.ndim == 1:
        return (lambda i: params[i]), params
    return (lambda i: params[:, i]), params


def _cos_sin(angles: Tensor) -> Tensor:
    """``concatenate([cos(θ/2), sin(θ/2)])`` along the factor axis."""
    half = angles * 0.5
    return ad.concatenate([ad.cos(half), ad.sin(half)], axis=-1)


def _rotation(c, s, kind: str) -> np.ndarray:
    """``c·I + s·G``: a factor's complex 2×2 at half-angle cosine ``c``
    and sine ``s`` (scalars, or ``(B, 1, 1)``).  Its derivative in the
    angle is ``dU(θ) = ½·U(θ+π) = ½·_rotation(−s, c)``."""
    return c * _EYE2 + s * _GENERATORS[kind]


class _GateTable:
    """A plan's rotation factors, evaluated together per run.

    The autodiff side (:meth:`operands`) builds the blocks the fused
    steps multiply with.  Shared angles build every block at once: one
    gather of the angles, one cos and one sin, one gather of the
    ``(L, S, 4, 4)`` factor blocks of the ``S`` fused runs (each padded
    to the longest run, ``L`` factors, with identities) from the cos|sin
    vector, then ``L − 1`` batched matmuls.  Per-batch angles (batched
    parameter shift) build each run's block when the plan reaches it,
    from that run's angles alone, so no per-row array outlives its run.
    The NumPy side (:meth:`numpy`) gives the adjoint sweep and the
    lowered tier their factor matrices.
    """

    def __init__(self, steps: tuple):
        self._steps = steps
        self._start, refs = {}, []
        for step in steps:
            self._start[id(step)] = len(refs)
            refs += [p for k, p in getattr(step, "_factors", ()) if k != "const"]
        self._refs = tuple(refs)

    @functools.cached_property
    def _maps(self) -> "_BlockMaps":
        # Built on first use: a lowered plan never runs the autodiff side.
        return _BlockMaps(self._steps)

    def operands(self, resolve):
        """Yield each step's operand in plan order: a fused run its block
        (a constant run its compile-time ``_const_m``), any other step
        the ``ref -> value`` resolver."""
        call, params = _resolver(resolve)
        blocks = self._maps.blocks(call, params)
        for step in self._steps:
            if step.kind != "fused_1q":
                yield call
            elif step._const_m is not None:
                yield step._const_m
            else:
                yield next(blocks)

    def numpy(self, resolve) -> "_NumpyGates":
        """The table for one NumPy sweep over these steps."""
        return _NumpyGates(self, resolve)


class _BlockMaps:
    """Where every fused run's block reads the cos|sin vector of its
    plan's rotations, fixed at compile time (see :class:`_GateTable`)."""

    def __init__(self, steps: tuple):
        runs = [s for s in steps if s.kind == "fused_1q" and s._const_m is None]
        rotations = [f for s in runs for f in s._factors if f[0] != "const"]
        n = len(rotations)
        self.refs = tuple(ref for _, ref in rotations)
        self.ref_index = np.asarray(self.refs, dtype=np.intp)
        index_all, sign_all = _factor_maps([kind for kind, _ in rotations])
        width = max((len(s._factors) for s in runs), default=0)
        index = np.zeros((width, len(runs), 4, 4), dtype=np.intp)
        sign = np.zeros(index.shape)
        const = np.zeros(index.shape)
        const[:] = np.eye(4)  # pads every run to ``width`` factors
        self.runs, first = [], 0
        for k, step in enumerate(runs):
            consts = tuple(None if kind != "const" else _real_block(u)
                           for kind, u in step._factors)
            pos = [i for i, c in enumerate(consts) if c is None]
            cols = slice(first, first + len(pos))
            index[pos, k], sign[pos, k] = index_all[cols], sign_all[cols]
            for i, c in enumerate(consts):
                const[i, k] = 0.0 if c is None else c
            # The same entries of the run's own cos|sin (2·len(pos) wide).
            local = np.where(_ON_COS, index_all[cols] - first,
                             index_all[cols] - n - first + len(pos))
            self.runs.append((consts, cols, self.ref_index[cols], local,
                              sign_all[cols]))
            first = cols.stop
        self.index, self.sign = _c_contig(index), _c_contig(sign)
        self.const = _c_contig(const) if const.any() else None

    def blocks(self, call, params):
        """The fused runs' blocks, in order (see :class:`_GateTable`)."""
        if params is None:
            values = [as_tensor(call(ref)) for ref in self.refs]
            if all(v.ndim == 0 for v in values):
                yield from self._shared(ad.stack(values))
                return
        elif params.ndim == 1:
            yield from self._shared(ad.getitem(params, self.ref_index))
            return
        for consts, cols, refs, index, sign in self.runs:
            if params is None:
                angles = _stack_angles(values[cols])
            else:
                angles = ad.getitem(params, (slice(None), refs))
            yield _run_block(angles, consts, index, sign)

    def _shared(self, angles: Tensor):
        t = ad.getitem(_cos_sin(angles), self.index) * self.sign
        if self.const is not None:
            t = t + self.const
        m = t[0]
        for pos in range(1, t.shape[0]):
            m = ad.matmul(t[pos], m)
        for k in range(len(self.runs)):
            yield m[k]


def _stack_angles(values: list) -> Tensor:
    """One run's resolved angles as ``(k,)``, or ``(batch, k)`` when any
    is per batch (the shared ones broadcast)."""
    if any(v.ndim > 1 for v in values):
        raise ValueError("angles must be scalar or per-batch 1-D")
    batch = next((v.shape[0] for v in values if v.ndim), None)
    if batch is None:
        return ad.stack(values)
    return ad.stack(
        [v if v.ndim else ad.broadcast_to(v, (batch,)) for v in values], axis=1
    )


def _run_block(angles: Tensor, consts: tuple, index, sign):
    """One fused run's block from its own angles: ``(4, 4)`` for ``(k,)``
    angles, ``(batch, 1, 4, 4)`` for ``(batch, k)``.  ``consts`` lists
    the run's factors in order, None for a rotation (the next column)."""
    rows = angles.ndim == 2
    p = ad.getitem(_cos_sin(angles), (slice(None), index) if rows else index)
    p = p * sign
    m, j = None, 0
    for const in consts:
        if const is None:
            const = p[:, j] if rows else p[j]
            j += 1
        m = const if m is None else ad.matmul(const, m)
    return ad.reshape(m, (-1, 1, 4, 4)) if rows else m


class _NumpyGates:
    """The gate table of one NumPy sweep (the adjoint sweep, the lowered
    float32 forward): one cos and one sin of every rotation factor's half
    angle, in float64, and each step's factor matrices built from them.
    ``resolve`` stays available to steps with other parameters."""

    def __init__(self, table: _GateTable, resolve):
        self.resolve = resolve
        self._start = table._start
        thetas = [_np_angle(resolve, ref) for ref in table._refs]
        half = np.concatenate([t.reshape(-1) for t in thetas] + [[]]) * 0.5
        self._cos, self._sin = np.cos(half), np.sin(half)
        # Factor f's values: [bounds[f], bounds[f + 1]) of cos and sin,
        # one for a shared angle, one per row for a per-batch one.
        self._bounds = np.cumsum([0] + [t.size for t in thetas]).tolist()
        self._batched = [t.ndim == 1 for t in thetas]

    def _factors(self, step):
        """``(U, ref, (c, s, kind))`` per factor of ``step`` in application
        order, with the rotation's half-angle cosine and sine; a constant
        factor's ref and rotation are None."""
        f = self._start[id(step)]
        for kind, payload in step._factors:
            if kind == "const":
                yield payload, None, None
                continue
            span = slice(self._bounds[f], self._bounds[f + 1])
            shape = (-1, 1, 1) if self._batched[f] else (1, 1)
            c = self._cos[span].reshape(shape)
            s = self._sin[span].reshape(shape)
            f += 1
            yield _rotation(c, s, kind), payload, (c, s, kind)

    def unitary(self, step) -> np.ndarray:
        """``step``'s composed complex unitary: ``(2, 2)``, or
        ``(batch, 2, 2)`` when an angle is per batch."""
        u = None
        for f, _, _ in self._factors(step):
            u = f if u is None else np.matmul(f, u)
        return u

    def derivatives(self, step):
        """``(U†, [(ref, D), ...])``: the composed unitary's inverse and,
        from the last rotation factor to the first, the derivative of U
        in that factor's angle, ``D = suffix·dU·prefix``."""
        mats = list(self._factors(step))
        prefixes = [_EYE2]
        for u, _, _ in mats:
            prefixes.append(np.matmul(u, prefixes[-1]))
        derivatives = []
        suffix = _EYE2
        for (u, ref, rot), prefix in zip(reversed(mats), reversed(prefixes[:-1])):
            if ref is not None:
                c, s, kind = rot
                du = 0.5 * _rotation(-s, c, kind)
                derivatives.append(
                    (ref, np.matmul(suffix, np.matmul(du, prefix)))
                )
            suffix = np.matmul(suffix, u)
        return np.conj(np.swapaxes(prefixes[-1], -1, -2)), derivatives


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
    (:func:`_bind_layouts`), so a run packs the state, loops over the
    prepared steps and unpacks the result.
    """

    def __init__(self, steps: tuple, n_qubits: int, n_gates: int):
        self.steps = steps
        self.n_qubits = n_qubits
        self.n_gates = n_gates
        self._exit = _bind_layouts(steps, n_qubits)
        self._table = _GateTable(steps)

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
        It may also be the flat parameter tensor itself — ``(P,)``
        shared or ``(batch, P)`` per batch — which the gate table then
        gathers in one op.  Under :func:`repro.obs.profile` the same
        steps run, each timed.
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
        for step, x in self._walk(_pack(state.tensor), resolve, None):
            yield _Unpack(step.order)(x)

    def _execute(self, tensor: ComplexTensor, resolve, reg) -> ComplexTensor:
        x = _pack(tensor)
        for _, x in self._walk(x, resolve, reg):
            pass
        return self._exit(x)

    def _walk(self, x: Tensor, resolve, reg):
        """The step loop on the packed state ``x``: yields ``(step,
        state)`` after each step, timing each one into ``reg`` when
        given.  Every step is called with its operand from the gate table
        (:meth:`_GateTable.operands`)."""
        operands = self._table.operands(resolve)
        for step, operand in zip(self.steps, operands):
            if reg is None:
                x = step(x, operand)
            else:
                for name in step.gates:
                    reg.counter("torq.gates", gate=name).inc()
                reg.counter("torq.plan.steps", kind=step.kind).inc()
                label = step.gates[0] if step.n_gates == 1 else step.kind
                with reg.timer("torq.apply", gate=label).time():
                    x = step(x, operand)
            yield step, x

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionPlan(n_qubits={self.n_qubits}, gates={self.n_gates}, "
            f"steps={self.num_steps})"
        )


def _compile(gates, n_qubits: int) -> ExecutionPlan:
    steps = []
    for group in _segment(gates):
        if group.kind == "1q":
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
