"""Trace-once/replay-many tape compilation for the autodiff engine.

PINN training runs the *same* computation graph thousands of times: only
the collocation values (and the parameters) change between epochs, never
the graph structure.  The define-by-run engine nevertheless re-allocates
every Tensor node, VJP closure, topological sort, and cotangent dict on
every step.  This module removes that bookkeeping from the hot loop the
same way :mod:`repro.torq.compile` removed gate dispatch from the
simulator: record once, replay many times.

**Lifecycle.**  :func:`trace` executes one training step — forward,
residual derivatives, and the backward pass — with every public op in
:mod:`repro.autodiff.ops` temporarily wrapped (the attribute rebind of
:func:`repro.autodiff.ops.rebind_ops`, which :mod:`repro.obs.profile`
also uses, so VJP closures and ``Tensor`` operator methods are captured
as well).  Each op call is appended to a flat
:class:`Tape` entry list: op kind, input/output *slot* ids, and static
kwargs.  Because the backward pass itself runs under the recorder, the
tape already contains the complete backward schedule — double-backward
residual graphs are derived once and replayed as plain kernel calls.

:class:`TapeExecutor` compiles a tape into a preplanned schedule of raw
NumPy kernel calls — no Tensor nodes, no closures, no topo sort — after
three structure-preserving passes:

* **dead-code elimination** — entries whose outputs never reach the loss,
  the parameter gradients, or an auxiliary output are dropped (e.g.
  backward work towards non-parameter leaves),
* **constant folding** — entries depending only on non-parameter leaves
  (collocation grids, embedding matrices, targets) are evaluated once at
  compile time and replayed as constants,
* **elementwise fusion** — single-use ``mul``/``square`` feeding a
  ``sum`` collapse into one in-place multiply + reduce kernel, chosen so
  the floating-point operation sequence is *bitwise identical* to the
  define-by-run result.

**Memory.**  Replay runs in one liveness-planned arena, built with the
planner the lowered statevector tier uses (:mod:`repro.lower.memplan`)
from the layouts the trace recorded, so the first replay already runs
in it.  Every ``out=`` buffer and fused-kernel scratch buffer is an
arena view with the shape, strides and tier dtype of the array it
replaces (BLAS and reduction bits read strides).  A buffer is live from
the entry that writes it to the last entry that reads it or a view of
it; the buffers behind the loss, gradients, aux and forward output live
to the end.  Buffers whose live ranges do not overlap share memory.
Kernels that return fresh arrays (gathers, copying reshapes, the
row-stable kernels' internals) still allocate, and each such array is
dropped at its last read.  Constant folding keeps only the folded values
the schedule or an output reads, so a parameter-free chain that folds to
one matrix leaves that matrix and none of its intermediates.  Between
replays an executor thus holds its arena and those constants only
(``arena_bytes`` and ``folded_bytes`` in its ``stats``).  A
steady-state replay performs **zero** graph-node allocations —
``scripts/bench_pde.py --check-alloc`` asserts exactly that in CI.

**Replay.**  When the tape compiles, the executor generates its
schedule as straight-line Python — one kernel call per line, with arena
views, constants, and parameter tensors bound in the function's
namespace and a ``del`` after each local's last read — so a replay
makes the schedule's NumPy calls and no per-entry dispatch.  Every
replay runs that function, the first one (checked against
define-by-run) included; an error while generating it raises
:class:`TapeFallback`.

**Entry point.**  :func:`compile_step` wraps a step function
``fn(*arrays) -> loss`` (or ``(loss, {name: Tensor})`` for logged
components) into a :class:`CompiledStep`.  Calling it returns
``(loss, grads, aux)`` where ``grads`` holds ``d loss / d p`` for every
parameter.  :func:`compile_forward` builds the same class in
forward-only mode for inference (no backward schedule, row-stable
kernels; calling it returns the output array).  Executors are cached
per input *structure key* (the tuple of input shapes/dtypes, like
``plan_cache_info()`` in TorQ), so a resampled collocation size
re-traces automatically instead of erroring.

**Correctness contract.**  Inputs that change between calls must be
passed as ``arrays``; parameters are read live through their ``.data`` on
every replay, so optimiser updates are picked up; every *other* leaf is
treated as a constant.  Ops whose VJPs capture data-dependent masks
(``relu``, ``clip``, ``where``, ``amax`` …; see
``repro.autodiff.ops.DATA_DEPENDENT_OPS``) and graph nodes created
outside the recorded op set (e.g. TorQ's analytic-gradient layers) raise
:class:`TapeFallback` during tracing.

**Fallback semantics.**  A :class:`CompiledStep` never raises on
unsupported structure: tracing and code-generation failures, validation
mismatches, and any replay error permanently revert the step to
define-by-run, with the reason in ``disabled`` and a count in
``autodiff.tape.fallbacks``.  The first replay after every (re-)trace is
validated against a fresh define-by-run evaluation to ``1e-12``
(replays are designed to be bitwise identical); a NaN on one side only
is a mismatch, a NaN on both sides is equal.

**Observability.**  While :func:`repro.obs.profile` is active, cache
events are published to the global metrics registry as counters
``autodiff.tape.hits`` / ``.misses`` / ``.retraces`` / ``.fallbacks``
(labelled ``step=<name>``; outside profiling the hot loop makes zero obs
callbacks), each executor's arena through ``lower.arena.bytes``
(labelled ``executor="tape"``), and :meth:`CompiledStep.cache_info`
reports the same numbers together with per-executor schedule and arena
statistics (``arena_bytes`` against the ``unplanned_bytes`` one buffer
per entry would hold, and ``folded_bytes``, the folded constants kept).

**Precision tier.**  ``compile_step(..., precision="float32")`` replays
the tape in float32: tracing and constant folding still run in float64
(the folded constants are demoted *once* at compile time), but dynamic
binds — input arrays and live parameter reads — are demoted at the top
of every replay, every arena buffer is float32, and the returned loss,
gradients, and aux arrays are promoted back to float64 so callers (the
optimiser, validation) never see tier dtypes.  Validation for the tier
compares against a fresh float64 define-by-run step under the
*normalised* tolerance of :func:`repro.lower.budget.tape_budget`
(``max|r - d| / (1 + max|d|)``) instead of the bitwise one, and the
executor cache key incorporates the tier so the same step can serve both
precisions side by side.  The default ``precision="float64"`` path is
untouched — bitwise identical to the seed replay.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Callable, Sequence

import numpy as np

from .ops import DATA_DEPENDENT_OPS, _is_basic_index, rebind_ops
from .tensor import Tensor, as_tensor
from .tensor import grad as _grad

__all__ = [
    "TapeFallback",
    "Tape",
    "TapeExecutor",
    "CompiledStep",
    "compile_step",
    "compile_forward",
    "trace",
]


class TapeFallback(RuntimeError):
    """Raised during tracing when a step cannot be tape-compiled."""


def _check_precision(precision: str) -> None:
    # Imported lazily: :mod:`repro.lower` depends on this package.
    from ..lower.budget import PRECISION_TIERS

    if precision not in PRECISION_TIERS:
        raise ValueError(
            f"unknown precision tier {precision!r}; "
            f"available: {PRECISION_TIERS}"
        )


def _cast_f32(a):
    """Demote a float array to float32; non-float payloads pass through."""
    if isinstance(a, np.ndarray) and a.dtype.kind == "f" \
            and a.dtype != np.float32:
        return np.asarray(a, dtype=np.float32)
    return a


def _promote_f64(a):
    """Promote a tier-precision output back to float64 for callers."""
    return np.asarray(a, dtype=np.float64)


#: ops whose recorded replay would freeze data-dependent VJP constants
#: (masks, signs) captured at trace time.  Forward-only traces admit
#: them — their *forwards* are pure functions of the inputs, and the
#: replay kernels below recompute the masks per call.
UNSUPPORTED_OPS = frozenset(DATA_DEPENDENT_OPS)

#: ops whose second positional argument is a tensor operand (everything
#: else treats position >= 1 as static configuration: axes, shapes,
#: indices).  Position 0 is a tensor operand for every kernelised op.
_BINARY_OPS = frozenset(
    {"add", "sub", "mul", "div", "matmul", "maximum", "minimum"}
)

_SEQUENCE_OPS = frozenset({"concatenate", "stack"})

#: composite ops implemented in terms of other primitives; their inner
#: calls are recorded, so the outer call is skipped (its output tensor is
#: already bound to a slot).
_COMPOSITE_OPS = frozenset({"mean", "dot_last"})


# ----------------------------------------------------------------------
# Replay kernels — each mirrors the exact NumPy computation of its op so
# replayed values are bitwise identical to the define-by-run forward.
# Mode 0 kernels return fresh arrays/views; mode 1 kernels write into an
# ``out=`` arena view; mode 2 are fused pairs streaming through an arena
# scratch view (see below).
# ----------------------------------------------------------------------

def _ufunc(uf):
    return lambda *vals, out=None: uf(*vals, out=out)


def _k_pow(a, p):
    return a ** p


def _k_reshape(a, shape):
    shape = tuple(shape) if isinstance(shape, (list, tuple)) else (shape,)
    return a.reshape(shape)


def _k_transpose(a, axes=None):
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    return a.transpose(tuple(axes))


def _k_squeeze(a, axis=None):
    return np.squeeze(a, axis=axis) if axis is not None else np.squeeze(a)


def _k_getitem(a, index, out=None):
    # The op copies the selection into a fresh contiguous array; mirror
    # that layout (a strided view would send downstream BLAS calls down a
    # different code path with different rounding).
    r = a[index]
    if np.isscalar(r) or r.ndim == 0:
        r = np.asarray(r)
    if out is None:
        return np.array(r, copy=True)
    np.copyto(out, r)
    return out


def _k_permute_last(a, indices):
    return a[..., np.asarray(indices, dtype=np.intp)]


def _k_broadcast_to(a, shape, out=None):
    # The op materialises a contiguous copy; mirror that layout so
    # downstream BLAS calls see identical strides (bitwise replay).
    v = np.broadcast_to(a, shape)
    if out is None:
        return v.copy()
    np.copyto(out, v)
    return out


def _k_tensor_sum(a, axis=None, keepdims=False, out=None):
    return a.sum(axis=axis, keepdims=keepdims, out=out)


def _k_scatter_add(ct, index, shape, out=None):
    if out is None:
        dtype = ct.dtype if ct.dtype.kind == "f" else np.float64
        out = np.zeros(shape, dtype=dtype)
    else:
        out.fill(0.0)
    if _is_basic_index(index):
        out[index] = ct
    else:
        np.add.at(out, index, ct)
    return out


def _k_sigmoid(a, out=None):
    if out is None:
        return 1.0 / (1.0 + np.exp(-a))
    np.negative(a, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.true_divide(1.0, out, out=out)
    return out


def _k_softplus(a, out=None):
    return np.logaddexp(0.0, a, out=out)


def _k_relu(a, out=None):
    # Mirror the op exactly: ``a * (a > 0)`` (not ``np.maximum``) so
    # negative inputs replay to the op's ``-0.0``, bitwise.
    mask = (a > 0).astype(a.dtype)
    return np.multiply(a, mask, out=out)


def _k_clip(a, lo, hi, out=None):
    return np.clip(a, lo, hi, out=out)


def _k_where(cond, a, b):
    return np.where(np.asarray(cond).astype(bool), a, b)


def _k_amax(a, axis=None, keepdims=False):
    return np.max(a, axis=axis, keepdims=keepdims)


def _k_amin(a, axis=None, keepdims=False):
    return np.min(a, axis=axis, keepdims=keepdims)


def _k_concatenate(*arrays, axis=0, out=None):
    return np.concatenate(arrays, axis=axis, out=out)


def _k_stack(*arrays, axis=0, out=None):
    return np.stack(arrays, axis=axis, out=out)


def _k_fused_mulsum(vals, static, buf):
    a, b = vals
    np.multiply(a, b, out=buf)
    return buf.sum(axis=static["axis"], keepdims=static["keepdims"])


def _k_fused_squaresum(vals, static, buf):
    (a,) = vals
    np.square(a, out=buf)
    return buf.sum(axis=static["axis"], keepdims=static["keepdims"])


def _k_fused_chain(vals, static, buf):
    # A run of unary elementwise ops streamed through one scratch buffer:
    # op0 writes into the buffer, every later op runs in place on it.
    # Values are bitwise-equal to the unfused sequence (each op is a pure
    # elementwise ufunc, so ``uf(x, out=x)`` == ``uf(x)``); only the
    # intermediate allocations disappear.
    (a,) = vals
    fns = static["ops"]
    fns[0](a, out=buf)
    for fn in fns[1:]:
        fn(buf, out=buf)
    return buf


#: op name -> (kernel, mode); mode 1 kernels take ``out=`` buffers.
KERNELS: dict[str, tuple[Callable, int]] = {
    "add": (_ufunc(np.add), 1),
    "sub": (_ufunc(np.subtract), 1),
    "mul": (_ufunc(np.multiply), 1),
    "div": (_ufunc(np.true_divide), 1),
    "neg": (_ufunc(np.negative), 1),
    "matmul": (_ufunc(np.matmul), 1),
    "exp": (_ufunc(np.exp), 1),
    "log": (_ufunc(np.log), 1),
    "sin": (_ufunc(np.sin), 1),
    "cos": (_ufunc(np.cos), 1),
    "tan": (_ufunc(np.tan), 1),
    "tanh": (_ufunc(np.tanh), 1),
    "sinh": (_ufunc(np.sinh), 1),
    "cosh": (_ufunc(np.cosh), 1),
    "arcsin": (_ufunc(np.arcsin), 1),
    "arccos": (_ufunc(np.arccos), 1),
    "arctan": (_ufunc(np.arctan), 1),
    "sqrt": (_ufunc(np.sqrt), 1),
    "square": (_ufunc(np.square), 1),
    "sign": (_ufunc(np.sign), 1),
    "pow": (_k_pow, 0),
    "sigmoid": (_k_sigmoid, 1),
    "softplus": (_k_softplus, 1),
    "reshape": (_k_reshape, 0),
    "transpose": (_k_transpose, 0),
    "moveaxis": (lambda a, source, destination: np.moveaxis(a, source, destination), 0),
    "expand_dims": (lambda a, axis: np.expand_dims(a, axis), 0),
    "squeeze": (_k_squeeze, 0),
    "broadcast_to": (_k_broadcast_to, 1),
    "concatenate": (_k_concatenate, 1),
    "stack": (_k_stack, 1),
    "flip": (lambda a, axis: np.flip(a, axis=axis), 0),
    "roll": (lambda a, shift, axis: np.roll(a, shift, axis=axis), 0),
    "permute_last": (_k_permute_last, 0),
    "getitem": (_k_getitem, 1),
    "scatter_add": (_k_scatter_add, 1),
    "tensor_sum": (_k_tensor_sum, 1),
    # Data-dependent ops: reachable from forward-only traces only (their
    # VJPs capture masks, so training traces reject them first).
    "absolute": (_ufunc(np.absolute), 1),
    "relu": (_k_relu, 1),
    "maximum": (_ufunc(np.maximum), 1),
    "minimum": (_ufunc(np.minimum), 1),
    "clip": (_k_clip, 1),
    "where": (_k_where, 0),
    "amax": (_k_amax, 0),
    "amin": (_k_amin, 0),
}

_FUSED_KERNELS = {
    "__fused_mulsum": _k_fused_mulsum,
    "__fused_squaresum": _k_fused_squaresum,
    "__fused_chain": _k_fused_chain,
}

#: mode 0 kernels that may return a view of their first operand; every
#: other mode 0 kernel returns a fresh array (gathers, ``where``, ``pow``).
_VIEW_KERNELS = frozenset(
    {"reshape", "transpose", "moveaxis", "expand_dims", "squeeze", "flip"}
)

#: row block size of the batch-invariant matmul kernel (see below).
_ROW_BLOCK = 32


def _k_matmul_rowstable(a, b, out=None):
    """``a @ b`` with row results independent of the batch size.

    BLAS GEMM picks different micro-kernels (and therefore different FP
    summation orders) depending on the output shape: ``(1, k) @ (k, m)``
    routes to GEMV, and small-``m`` products (a network's scalar output
    head) change blocking with the row count, so the *same input row*
    can produce a 1-ulp-different output in a batch of 7 vs a batch of
    512.  Serving coalesces requests into one batch and must hand every
    request bitwise the rows it would have computed alone, so this
    kernel fixes the GEMM shape by construction: rows are processed in
    blocks of exactly :data:`_ROW_BLOCK` (the tail zero-padded) through
    one broadcast ``(nb, B, k) @ (k, m)`` batched GEMM whose per-item
    shape never depends on the total row count.  Non-2D operands (the
    quantum plan's broadcast block products) already have this property
    — their per-item GEMM shape is batch-independent — and pass through
    to ``np.matmul`` untouched.
    """
    if getattr(a, "ndim", 0) != 2 or getattr(b, "ndim", 0) != 2:
        return np.matmul(a, b, out=out)
    n, k = a.shape
    m = b.shape[1]
    nb = -(-n // _ROW_BLOCK) if n else 1
    padded = nb * _ROW_BLOCK
    if n == padded:
        block_in = a.reshape(nb, _ROW_BLOCK, k)
    else:
        pad = np.zeros((padded, k), dtype=a.dtype)
        pad[:n] = a
        block_in = pad.reshape(nb, _ROW_BLOCK, k)
    result = np.matmul(block_in, b).reshape(padded, m)[:n]
    if out is None:
        return np.ascontiguousarray(result)
    np.copyto(out, result)
    return out

def _k_tensor_sum_rowstable(a, axis=None, keepdims=False, out=None):
    """``a.sum(axis=...)`` with row results independent of the batch size.

    NumPy picks the iteration (and therefore FP accumulation) order of a
    multi-axis reduction from the operand's full shape, so summing the
    statevector axes of a ``(batch, 2, ..., 2)`` tensor can round a
    row's expectation differently at ``batch=1`` than inside a larger
    batch.  For reductions that keep axis 0 (every per-row model
    reduction), this kernel canonicalises the order by construction:
    transpose the reduced axes last (ascending), compact to
    ``(kept..., red)`` contiguously, and reduce the final axis — each
    row's accumulation then never sees the batch extent.  Reductions
    *over* axis 0 mix rows by definition (no per-row contract to keep)
    and fall through to the plain kernel.
    """
    nd = getattr(a, "ndim", 0)
    if axis is None or nd < 2:
        return a.sum(axis=axis, keepdims=keepdims, out=out)
    axes = axis if isinstance(axis, (tuple, list)) else (axis,)
    axes = tuple(sorted(ax % nd for ax in axes))
    if not axes or 0 in axes:
        return a.sum(axis=axis, keepdims=keepdims, out=out)
    kept = tuple(i for i in range(nd) if i not in axes)
    moved = np.ascontiguousarray(np.transpose(a, kept + axes))
    red = 1
    for ax in axes:
        red *= a.shape[ax]
    result = moved.reshape(
        tuple(a.shape[i] for i in kept) + (red,)
    ).sum(axis=-1)
    if keepdims:
        result = result.reshape(
            tuple(1 if i in axes else a.shape[i] for i in range(nd))
        )
    if out is None:
        return result
    np.copyto(out, result)
    return out


#: the kernels a forward-only (serving) replay swaps in, by op name.
_ROW_STABLE = {
    "matmul": _k_matmul_rowstable,
    "tensor_sum": _k_tensor_sum_rowstable,
}


#: unary elementwise kernels safe to collapse into a ``__fused_chain``:
#: each is a pure ufunc (or ufunc expression) for which running in place
#: on its own input is exact.
_CHAINABLE_UNARY = frozenset({
    "neg", "exp", "log", "sin", "cos", "tan", "tanh", "sinh", "cosh",
    "arcsin", "arccos", "arctan", "sqrt", "square", "sign", "softplus",
})


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

class _Entry:
    """One recorded op: kernel name, arg template, static kwargs, output.

    ``layout`` is ``(shape, dtype, element strides)`` of the array an
    ``out=`` op produced while tracing — the layout its replay buffer
    mirrors (``None`` for ops that return fresh arrays or views).
    """

    __slots__ = ("name", "template", "static", "out_slot", "layout")

    def __init__(self, name, template, static, out_slot, layout):
        self.name = name
        self.template = template  # tuple[(is_slot, slot_or_value), ...]
        self.static = static      # dict of static kwargs
        self.out_slot = out_slot
        self.layout = layout


class _Tracer:
    """Records ops into entries and assigns tensors to value slots.

    Slot binds are ``("input", k)`` (positional input array, matched by
    array identity), ``("param", t)`` / ``("const", t)`` (captured leaf
    tensors, read live via ``.data``), ``("value", arr)`` (static
    literals), or ``("op", None)`` (produced by an entry).
    """

    def __init__(self, arrays: Sequence[np.ndarray], params: Sequence[Tensor],
                 forward_only: bool = False):
        self.forward_only = bool(forward_only)
        self.arrays = list(arrays)
        self.input_ids = {id(a): k for k, a in enumerate(self.arrays)}
        self.input_slots: list[int | None] = [None] * len(self.arrays)
        self.param_ids = {id(p) for p in params}
        self.slot_of: dict[int, int] = {}
        self.binds: list[tuple] = []
        self.entries: list[_Entry] = []
        # Keeps every tensor seen alive for the duration of the trace so
        # CPython cannot recycle an id() for a new tensor mid-trace.
        self.keepalive: list = []

    def _new_slot(self, bind) -> int:
        slot = len(self.binds)
        self.binds.append(bind)
        return slot

    def ref_tensor(self, t: Tensor) -> int:
        slot = self.slot_of.get(id(t))
        if slot is not None:
            return slot
        k = self.input_ids.get(id(t.data))
        if k is not None:
            if self.input_slots[k] is None:
                self.input_slots[k] = self._new_slot(("input", k))
            slot = self.input_slots[k]
        elif t._parents:
            raise TapeFallback(
                "graph node created outside the recorded op set "
                "(custom make_node VJP, e.g. a non-backprop quantum layer)"
            )
        else:
            kind = "param" if id(t) in self.param_ids else "const"
            slot = self._new_slot((kind, t))
        self.slot_of[id(t)] = slot
        self.keepalive.append(t)
        return slot

    def record(self, name: str, args: tuple, kwargs: dict, out: Tensor) -> None:
        if id(out) in self.slot_of:
            return  # composite op: inner primitives already recorded
        if name in _COMPOSITE_OPS:  # pragma: no cover - defensive
            raise TapeFallback(f"composite op {name!r} produced a new node")
        if name in UNSUPPORTED_OPS and not self.forward_only:
            raise TapeFallback(
                f"op {name!r} captures data-dependent constants in its VJP"
            )
        if name not in KERNELS:  # pragma: no cover - defensive
            raise TapeFallback(f"no replay kernel for op {name!r}")
        template: list[tuple] = []
        if name in _SEQUENCE_OPS:
            elements = args[0]
            for el in elements:
                if isinstance(el, Tensor):
                    template.append((True, self.ref_tensor(el)))
                else:
                    template.append((False, as_tensor(el).data))
            axis = args[1] if len(args) > 1 else kwargs.get("axis", 0)
            static = {"axis": axis}
        else:
            for i, a in enumerate(args):
                if isinstance(a, Tensor):
                    template.append((True, self.ref_tensor(a)))
                elif i == 0 or (i == 1 and name in _BINARY_OPS):
                    # Tensor-operand position: mirror the op's as_tensor
                    # coercion so kernels see identical dtypes.
                    template.append((False, as_tensor(a).data))
                elif i == 1 and name == "pow":
                    if isinstance(a, (int, float)) and not isinstance(a, bool):
                        template.append((False, float(a)))
                    else:
                        template.append((False, as_tensor(a).data))
                else:
                    template.append((False, a))
            for v in kwargs.values():
                if isinstance(v, Tensor):  # pragma: no cover - defensive
                    raise TapeFallback(f"tensor keyword argument to {name!r}")
            static = dict(kwargs)
        out_slot = self._new_slot(("op", None))
        self.slot_of[id(out)] = out_slot
        self.keepalive.append(out)
        layout = None
        if KERNELS[name][1]:  # an ``out=`` kernel: its buffer mirrors this
            data = out.data
            layout = (data.shape, data.dtype,
                      tuple(st // data.itemsize for st in data.strides))
        self.entries.append(
            _Entry(name, tuple(template), static, out_slot, layout)
        )

    def output_ref(self, t: Tensor) -> tuple:
        slot = self.slot_of.get(id(t))
        if slot is not None:
            return ("slot", slot)
        if t._parents:  # pragma: no cover - defensive
            raise TapeFallback("output is an untraced interior node")
        # Static output (e.g. an allow_unused zero gradient).
        return ("value", t.data)


_tls = threading.local()
_trace_lock = threading.Lock()


def _wrap_for_trace(name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = getattr(_tls, "tracer", None)
        if tracer is None:
            return fn(*args, **kwargs)
        out = fn(*args, **kwargs)
        tracer.record(name, args, kwargs, out)
        return out

    return traced


def _split_output(out):
    if isinstance(out, Tensor):
        return out, {}
    if (
        isinstance(out, tuple)
        and len(out) == 2
        and isinstance(out[0], Tensor)
        and isinstance(out[1], dict)
    ):
        return out[0], out[1]
    raise TypeError(
        "step function must return a Tensor loss or (loss, {name: Tensor})"
    )


class Tape:
    """A recorded step: flat entries plus slot binds and output refs.

    ``forward_only`` marks a tape recorded without a backward pass
    (:func:`trace` with ``forward_only=True``): ``loss_ref`` then refers
    to the step's (possibly non-scalar) primary output and ``grad_refs``
    is empty.
    """

    def __init__(self, entries, binds, loss_ref, grad_refs, aux_refs,
                 forward_only: bool = False):
        self.entries = entries
        self.binds = binds
        self.loss_ref = loss_ref
        self.grad_refs = grad_refs
        self.aux_refs = aux_refs
        self.forward_only = bool(forward_only)

    def __len__(self) -> int:
        return len(self.entries)

    def compile(self, precision: str = "float64") -> "TapeExecutor":
        """Optimise, preplan and generate the tape's :class:`TapeExecutor`."""
        return TapeExecutor(self, precision=precision)


def trace(fn, arrays: Sequence[np.ndarray], params: Sequence[Tensor],
          forward_only: bool = False):
    """Record one execution of ``fn(*arrays)`` plus its backward pass.

    Returns ``(tape, (loss, grads, aux))`` where the second element holds
    the results of the traced execution itself (floats/arrays, computed
    define-by-run while recording).  Raises :class:`TapeFallback` when the
    step uses an op outside the replayable set.

    With ``forward_only=True`` the backward pass is never executed, so
    the tape contains no gradient schedule at all: ``fn`` may return a
    non-scalar output tensor (inference mode — the serving path), grads
    come back empty, and the recorded output is returned as an array.
    The trace still runs with gradients *enabled* so graph nodes created
    outside the recorded op set (e.g. an analytic-gradient quantum
    layer's ``make_node``) are detected and raise :class:`TapeFallback`
    instead of being silently frozen as constants.
    """
    for a in arrays:
        if not (isinstance(a, np.ndarray) and a.dtype.kind == "f"):
            raise TapeFallback("tape inputs must be float NumPy arrays")
    params = list(params)
    with _trace_lock:
        tracer = _Tracer(arrays, params, forward_only=forward_only)
        originals = rebind_ops(_wrap_for_trace)
        _tls.tracer = tracer
        try:
            loss, aux = _split_output(fn(*arrays))
            grads = [] if forward_only else _grad(
                loss, params, allow_unused=True
            )
        finally:
            _tls.tracer = None
            rebind_ops(lambda name, _traced: originals[name])
    loss_ref = tracer.output_ref(loss)
    if loss_ref[0] != "slot":
        raise TapeFallback("loss does not depend on any recorded op")
    grad_refs = [tracer.output_ref(g) for g in grads]
    aux_refs = {k: tracer.output_ref(v) for k, v in aux.items()}
    tape = Tape(tracer.entries, tracer.binds, loss_ref, grad_refs, aux_refs,
                forward_only=forward_only)
    result = (
        loss.data if forward_only else float(loss.data),
        [g.data for g in grads],
        {k: v.data for k, v in aux.items()},
    )
    return tape, result


# ----------------------------------------------------------------------
# Compilation passes + executor
# ----------------------------------------------------------------------

def _output_slots(tape) -> set:
    """Output slot ids of a :class:`Tape` (or anything with its refs)."""
    refs = [tape.loss_ref, *tape.grad_refs, *tape.aux_refs.values()]
    return {payload for kind, payload in refs if kind == "slot"}


def _dce(entries: list, needed: set) -> list:
    """Drop entries whose outputs never reach a tape output."""
    keep: list = []
    needed = set(needed)
    for entry in reversed(entries):
        if entry.out_slot in needed:
            keep.append(entry)
            for is_slot, ref in entry.template:
                if is_slot:
                    needed.add(ref)
    keep.reverse()
    return keep


def _run_kernel(name: str, vals: list, static: dict):
    fn, _mode = KERNELS[name]
    return fn(*vals, **static)


def _fold_constants(entries: list, binds: list) -> tuple[list, int]:
    """Evaluate entries that depend only on non-parameter leaves."""
    static_val: dict[int, object] = {}
    for slot, (kind, payload) in enumerate(binds):
        if kind == "value":
            static_val[slot] = payload
        elif kind == "const":
            static_val[slot] = payload.data
    kept: list = []
    folded = 0
    for entry in entries:
        if all((not is_slot) or (ref in static_val)
               for is_slot, ref in entry.template):
            vals = [static_val[ref] if is_slot else ref
                    for is_slot, ref in entry.template]
            result = _run_kernel(entry.name, vals, entry.static)
            static_val[entry.out_slot] = result
            binds[entry.out_slot] = ("value", result)
            folded += 1
        else:
            kept.append(entry)
    return kept, folded


def _sum_params(entry: _Entry) -> tuple:
    extras = [ref for _is_slot, ref in entry.template[1:]]
    axis = extras[0] if len(extras) >= 1 else entry.static.get("axis", None)
    keepdims = extras[1] if len(extras) >= 2 else entry.static.get("keepdims", False)
    return axis, keepdims


def _fuse(entries: list, protected: set) -> tuple[list, int]:
    """Peephole fusion keeping the FP op sequence bitwise identical.

    * ``mul(x, x)`` -> ``square(x)`` (NumPy's square *is* ``x*x``),
    * single-use ``mul``/``square`` feeding ``tensor_sum`` -> one fused
      multiply-into-scratch + pairwise-sum kernel.
    """
    for entry in entries:
        if entry.name == "mul" and len(entry.template) == 2:
            (a_is, a_ref), (b_is, b_ref) = entry.template
            if a_is and b_is and a_ref == b_ref:
                entry.name = "square"
                entry.template = ((True, a_ref),)
    use_count: dict[int, int] = {}
    producer: dict[int, int] = {}
    for i, entry in enumerate(entries):
        producer[entry.out_slot] = i
        for is_slot, ref in entry.template:
            if is_slot:
                use_count[ref] = use_count.get(ref, 0) + 1
    fused_away: set[int] = set()
    fused = 0
    for i, entry in enumerate(entries):
        if entry.name != "tensor_sum" or not entry.template:
            continue
        is_slot, src = entry.template[0]
        if not is_slot:
            continue
        j = producer.get(src)
        if j is None or j in fused_away:
            continue
        prod = entries[j]
        if prod.name not in ("mul", "square"):
            continue
        if use_count.get(src, 0) != 1 or src in protected:
            continue
        axis, keepdims = _sum_params(entry)
        entry.name = ("__fused_squaresum" if prod.name == "square"
                      else "__fused_mulsum")
        entry.template = prod.template
        entry.static = {"axis": axis, "keepdims": keepdims}
        entry.layout = prod.layout  # the scratch buffer replaces prod's
        fused_away.add(j)
        fused += 1
    if fused_away:
        entries = [e for j, e in enumerate(entries) if j not in fused_away]
    return entries, fused


def _fuse_chains(entries: list, protected: set) -> tuple[list, int]:
    """Collapse runs of single-use unary elementwise ops into one kernel.

    ``sin -> square -> neg`` (each intermediate used exactly once and not
    itself a tape output) becomes a single ``__fused_chain`` entry that
    streams through one arena scratch buffer instead of one buffer per
    op.  The surviving entry keeps the
    *last* op's output slot, so downstream references are untouched.
    Returns the rewritten list and the number of entries eliminated.
    """
    use_count: dict[int, int] = {}
    consumer: dict[int, int] = {}
    for i, entry in enumerate(entries):
        for is_slot, ref in entry.template:
            if is_slot:
                use_count[ref] = use_count.get(ref, 0) + 1
                consumer[ref] = i

    def chainable(e: _Entry) -> bool:
        return (e.name in _CHAINABLE_UNARY and len(e.template) == 1
                and e.template[0][0] and not e.static)

    fused_away: set[int] = set()
    chained = 0
    i = 0
    while i < len(entries):
        entry = entries[i]
        if i in fused_away or not chainable(entry):
            i += 1
            continue
        run = [i]
        cur = entry
        while (use_count.get(cur.out_slot) == 1
               and cur.out_slot not in protected):
            k = consumer[cur.out_slot]
            nxt = entries[k]
            if not chainable(nxt) or nxt.template[0][1] != cur.out_slot:
                break
            run.append(k)
            cur = nxt
        if len(run) >= 2:
            ops = tuple(KERNELS[entries[k].name][0] for k in run)
            last = entries[run[-1]]
            last.name = "__fused_chain"
            last.template = entries[run[0]].template
            last.static = {"ops": ops}
            last.layout = entries[run[0]].layout
            fused_away.update(run[:-1])
            chained += len(run) - 1
            i = run[-1] + 1
        else:
            i += 1
    if fused_away:
        entries = [e for j, e in enumerate(entries) if j not in fused_away]
    return entries, chained


def _arena_layout(layout, f32: bool) -> tuple:
    """``(shape, dtype, byte strides, nbytes)`` of one replay buffer.

    The traced array's layout at the tier dtype: BLAS kernel choice and
    reduction order read the output's strides, so float64 bits depend on
    them.  ``nbytes`` is the strides' span (0 for an empty array).
    """
    shape, dtype, strides = layout
    if f32 and dtype.kind == "f":
        dtype = np.dtype(np.float32)
    span = 1 + sum(st * (d - 1) for st, d in zip(strides, shape))
    return (shape, dtype, tuple(st * dtype.itemsize for st in strides),
            span * dtype.itemsize if all(shape) else 0)


class TapeExecutor:
    """Replays an optimised tape through generated straight-line Python.

    Compiling runs the passes, plans every ``out=`` and scratch buffer
    into one liveness-planned :class:`repro.lower.memplan.Arena` (module
    docstring, **Memory**), and generates the replay function that every
    replay runs.  Between replays the executor holds its arena and the
    folded constants its schedule reads, and nothing else: ``stats``
    reports the two as ``arena_bytes`` and ``folded_bytes``.  Returned
    outputs are arena views, only valid until the next replay — copy
    before mutating or keeping them.

    A forward-only tape (the serving path) replays *row-stable*: every
    2-D ``matmul`` and per-row ``tensor_sum`` runs its batch-invariant
    kernel (:func:`_k_matmul_rowstable`, :func:`_k_tensor_sum_rowstable`),
    so each output row is bitwise the same whatever batch it rides in.
    A training tape replays the define-by-run kernels.
    """

    def __init__(self, tape: Tape, precision: str = "float64"):
        _check_precision(precision)
        self.precision = str(precision)
        self.forward_only = tape.forward_only
        cast = _cast_f32 if precision == "float32" else None
        binds = list(tape.binds)
        outputs = _output_slots(tape)
        entries = _dce(tape.entries, outputs)
        recorded = len(tape.entries)
        after_dce = len(entries)
        # Constant folding always runs in float64 — folded values are the
        # oracle's, demoted *once* below, so the tier loses precision only
        # in the dynamic part of the schedule.
        entries, folded = _fold_constants(entries, binds)
        if self.forward_only:
            # The mul+sum fused kernels embed the plain batch-shaped
            # ``.sum`` whose accumulation order row-stable replay pins
            # down; leave sums unfused so they route through the
            # row-stable reduction kernel below.
            fused = 0
        else:
            entries, fused = _fuse(entries, outputs)
        entries, chained = _fuse_chains(entries, outputs)
        # A folded value or a leaf is bound only if the schedule or an
        # output reads it: a folded chain's intermediates die here, at
        # compile time.
        read = set(outputs)
        for entry in entries:
            read.update(ref for is_slot, ref in entry.template if is_slot)
        self.stats = {
            "recorded": recorded,
            "after_dce": after_dce,
            "folded": folded,
            "fused": fused,
            "chained": chained,
            "schedule": len(entries),
            "precision": self.precision,
            "forward_only": self.forward_only,
        }
        self.needs_validation = True
        dyn: list[tuple] = []
        values: list[tuple] = []
        for slot, (kind, payload) in enumerate(binds):
            if kind == "op" or slot not in read:
                continue  # op slots are filled by the schedule
            if kind == "value":
                values.append((slot, payload if cast is None else cast(payload)))
            else:
                dyn.append((slot, kind == "input", payload))
        self._value_binds = tuple(values)
        self.stats["folded_bytes"] = sum(
            np.asarray(v).nbytes for _slot, v in values
        )
        schedule = []
        for entry in entries:
            if entry.name in _FUSED_KERNELS:
                fn, mode = _FUSED_KERNELS[entry.name], 2
            else:
                fn, mode = KERNELS[entry.name]
                if self.forward_only:
                    fn = _ROW_STABLE.get(entry.name, fn)
            template = entry.template
            if cast is not None:
                # Inline literal operands (as_tensor coercions) are f64
                # arrays; NEP 50 makes f64 arrays "strong", so leaving one
                # in a template would silently upcast the whole chain.
                template = tuple(
                    (is_slot, ref if is_slot else cast(ref))
                    for is_slot, ref in template
                )
            schedule.append((fn, template, entry.static, entry.out_slot, mode))
        frees = self._plan_memory(entries, schedule, outputs, dyn)
        try:
            self._replay = self._generate(tape, dyn, schedule, frees, cast)
        except Exception as exc:
            raise TapeFallback(f"replay codegen failed: {exc!r}") from exc

    def _plan_memory(self, entries: list, schedule: list, outputs: set,
                     dyn: list) -> list:
        """Liveness-plan the replay buffers into one arena.

        A buffer is live from the entry that writes it to the last entry
        that reads it or a view of it; a buffer behind a tape output
        stays live to the end.  Returns, per entry, the slots a replay
        fills (fresh kernel results, per-replay leaf reads) whose last
        read it is, so the generated replay drops them there.
        """
        from ..lower.memplan import Arena, BufferSpec, plan_buffers

        end = len(schedule)
        roots: dict[int, tuple] = {}  # slot -> buffers it may alias
        last: dict[int, int] = {}     # buffer (its entry index) -> last read
        last_read: dict[int, int] = {}
        for i, (entry, (_fn, template, _static, out_slot, mode)) in enumerate(
            zip(entries, schedule)
        ):
            for is_slot, ref in template:
                if is_slot:
                    last_read[ref] = i
                    for buf in roots.get(ref, ()):
                        last[buf] = i
            if mode:
                last[i] = i
            if mode == 1 or entry.name == "__fused_chain":
                roots[out_slot] = (i,)
            elif entry.name in _VIEW_KERNELS and template[0][0]:
                roots[out_slot] = roots.get(template[0][1], ())
        for ref in outputs:
            last_read[ref] = end
            for buf in roots.get(ref, ()):
                last[buf] = end
        f32 = self.precision == "float32"
        layouts = {i: _arena_layout(entries[i].layout, f32) for i in last}
        plan = plan_buffers([
            BufferSpec(f"e{i}", layout[3], i, last[i])
            for i, layout in layouts.items()
        ])
        self._arena = Arena(plan, executor="tape")
        self._bufs: list = [None] * end
        for i, (shape, dtype, strides, nbytes) in layouts.items():
            self._bufs[i] = (
                self._arena.strided_view(f"e{i}", shape, dtype, strides)
                if nbytes else self._arena.view(f"e{i}", shape, dtype)
            )
        transient = {slot for slot, _is_input, _payload in dyn}
        transient.update(out_slot for *_, out_slot, _mode in schedule)
        frees: list[list] = [[] for _ in range(end)]
        for ref, i in last_read.items():
            if i < end and ref in transient:
                frees[i].append(ref)
        self.stats.update(
            buffers=len(layouts),
            arena_bytes=plan.total_bytes,
            unplanned_bytes=plan.naive_bytes,
        )
        return frees

    def buffer_bytes(self) -> int:
        """Bytes the executor holds for replay: its arena.

        Every ``out=`` and scratch buffer lives in the arena and every
        fresh kernel result is dropped by the end of a replay, so nothing
        else survives one.
        """
        return self._arena.total_bytes

    def replay(self, arrays: Sequence[np.ndarray]):
        """Run the generated schedule; returns ``(loss, grads, aux)``."""
        return self._replay(arrays)

    def _generate(self, tape: Tape, dyn: list, schedule: list, frees: list,
                  cast) -> Callable:
        """Generate the straight-line replay function.

        Emits one source line per kernel call — arena views, static
        values, constants, and parameter tensors are bound in the
        generated function's global namespace — plus a ``del`` of every
        local after its last read, and compiles it.
        """
        ns: dict = {}
        names: dict[int, str] = {}

        def bind(obj, prefix: str) -> str:
            key = id(obj)
            name = names.get(key)
            if name is None:
                name = f"{prefix}{len(ns)}"
                ns[name] = obj
                names[key] = name
            return name

        lines = ["def _replay(arrays):"]
        for slot, is_input, payload in dyn:
            src = (f"arrays[{payload}]" if is_input
                   else f"{bind(payload, 't')}.data")
            if cast is not None:
                src = f"{bind(cast, 'g')}({src})"
            lines.append(f"    s{slot} = {src}")
        for slot, value in self._value_binds:
            lines.append(f"    s{slot} = {bind(value, 'c')}")
        for i, (fn, template, static, out_slot, mode) in enumerate(schedule):
            fname = bind(fn, "f")
            args = ", ".join(
                f"s{ref}" if is_slot else bind(ref, "k")
                for is_slot, ref in template
            )
            kw = "".join(
                f", {key}={bind(value, 'k')}" for key, value in static.items()
            )
            if mode == 1:
                bname = bind(self._bufs[i], "b")
                lines.append(
                    f"    s{out_slot} = {fname}({args}, out={bname}{kw})"
                )
            elif mode == 0:
                lines.append(f"    s{out_slot} = {fname}({args}{kw})")
            else:
                sname = bind(static, "k")
                bname = bind(self._bufs[i], "b")
                lines.append(
                    f"    s{out_slot} = {fname}(({args},), {sname}, {bname})"
                )
            if frees[i]:
                lines.append(
                    "    del " + ", ".join(f"s{ref}" for ref in frees[i])
                )

        def ref_expr(ref) -> str:
            kind, payload = ref
            return f"s{payload}" if kind == "slot" else bind(payload, "c")

        def out_expr(ref) -> str:
            expr = ref_expr(ref)
            if cast is not None:
                expr = f"{bind(_promote_f64, 'g')}({expr})"
            return expr

        grads = ", ".join(out_expr(r) for r in tape.grad_refs)
        aux = ", ".join(
            f"{k!r}: {out_expr(r)}" for k, r in tape.aux_refs.items()
        )
        loss_expr = (out_expr(tape.loss_ref) if self.forward_only
                     else f"float({ref_expr(tape.loss_ref)})")
        lines.append(f"    return {loss_expr}, [{grads}], {{{aux}}}")
        exec(compile("\n".join(lines), "<tape-codegen>", "exec"), ns)
        return ns["_replay"]


# ----------------------------------------------------------------------
# The user-facing compiled step
# ----------------------------------------------------------------------

#: validation tolerance of a float64 replay (designed to be bitwise) and
#: the floor under a reduced-precision tier's ``tape_budget``.
_TOL = 1e-12


def _executor_info(cache: OrderedDict) -> dict:
    """The executor fields of ``cache_info()``: ``buffer_bytes`` (every
    cached executor's arena), ``folded_bytes`` (their folded constants),
    per-executor ``executors`` statistics, and the most recent executor's
    as ``schedule``."""
    stats = [dict(ex.stats) for ex in cache.values()]
    info = {
        "buffer_bytes": sum(ex.buffer_bytes() for ex in cache.values()),
        "folded_bytes": sum(st["folded_bytes"] for st in stats),
        "executors": stats,
    }
    if stats:
        info["schedule"] = stats[-1]
    return info


def _deviation(r, d, normalize: bool) -> float:
    """Largest ``|r - d|`` of a replayed against a define-by-run output.

    ``inf`` on a shape mismatch or a NaN on one side only; a NaN on both
    sides counts as equal.  With ``normalize`` (reduced-precision tiers)
    the error is divided by ``1 + max|d|`` — relative for large values,
    absolute near zero — to match the ``tape_budget`` contract.
    """
    r, d = np.asarray(r), np.asarray(d)
    if r.shape != d.shape:
        return float("inf")
    nan_d = np.isnan(d)
    same = (r == d) | (np.isnan(r) & nan_d)
    with np.errstate(invalid="ignore"):
        err = float(np.max(np.abs(np.subtract(r, d)), where=~same,
                           initial=0.0))
    if err != err:  # a NaN on one side only
        return float("inf")
    if normalize:
        err /= 1.0 + float(np.max(np.abs(d), where=~nan_d, initial=0.0))
    return err


class CompiledStep:
    """A step function compiled on first call and replayed thereafter.

    Built by :func:`compile_step` (a training step) or
    :func:`compile_forward` (a forward-only inference function).  A
    training step called with positional input arrays returns
    ``(loss, grads, aux)``: the loss as a float, one gradient array per
    parameter, and the auxiliary tensors returned by the step function
    as arrays.  A forward-only step returns the output array.  Returned
    arrays are executor-owned, valid until the next call with the same
    input structure: copy before mutating or keeping them.

    Executors are cached by input structure key.  The first replay of
    every executor is validated against a fresh define-by-run
    evaluation; unsupported ops, a failed code generation or validation,
    and any replay error permanently revert to define-by-run (never an
    exception), with the reason in :attr:`disabled`.  Thread-safe: calls
    are serialised, because replay mutates executor-owned buffers.
    """

    def __init__(
        self,
        fn,
        params: Sequence[Tensor],
        name: str = "step",
        cache_size: int = 8,
        precision: str = "float64",
    ):
        _check_precision(precision)
        self._fn = fn
        self._params = list(params)
        self._name = name
        self._precision = str(precision)
        self._cache_size = int(cache_size)
        self._forward_only = False  # set by compile_forward
        self._cache: OrderedDict[tuple, TapeExecutor] = OrderedDict()
        self._disabled: str | None = None
        self._hits = 0
        self._misses = 0
        self._retraces = 0
        self._fallbacks = 0
        # Replay mutates executor-owned buffers, so concurrent callers
        # (the serve path) must serialise the whole call, not just the
        # cache lookup.  Reentrant: _count/_direct run under the lock.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def disabled(self) -> str | None:
        """Fallback reason when permanently reverted, else ``None``."""
        return self._disabled

    @property
    def precision(self) -> str:
        """Replay precision tier (``"float64"`` or ``"float32"``)."""
        return self._precision

    def cache_info(self) -> dict:
        """Cache statistics in the spirit of TorQ's ``plan_cache_info``."""
        with self._lock:
            return {
                "step": self._name,
                "precision": self._precision,
                "forward_only": self._forward_only,
                "size": len(self._cache),
                "max_size": self._cache_size,
                "hits": self._hits,
                "misses": self._misses,
                "retraces": self._retraces,
                "fallbacks": self._fallbacks,
                "disabled": self._disabled,
                **_executor_info(self._cache),
            }

    def clear(self) -> None:
        """Drop every cached executor (the next call re-traces)."""
        with self._lock:
            self._cache.clear()

    def invalidate(self) -> None:
        """Drop all compiled state after an external restore.

        Checkpoint restores replace parameter ``.data`` arrays *and*
        non-trainable leaf buffers; cached executors folded constants
        derived from those leaves at trace time, so every executor (and
        any permanent fallback decision) is discarded — the next call
        re-traces against the restored state.
        """
        with self._lock:
            self._cache.clear()
            self._disabled = None

    # ------------------------------------------------------------------
    def _count(self, event: str) -> None:
        setattr(self, f"_{event}", getattr(self, f"_{event}") + 1)
        # Publish to the metrics registry only while profiling is active —
        # the trainer hot loop must make zero obs callbacks otherwise.
        from ..obs.profile import is_profiling

        if is_profiling():
            from ..obs.registry import metrics

            metrics().counter(
                f"autodiff.tape.{event}", step=self._name
            ).inc()

    def _direct(self, arrays) -> tuple:
        """Define-by-run ``(loss, grads, aux)``; forward-only runs under
        :func:`~repro.autodiff.no_grad` and returns the output array as
        its loss."""
        if self._forward_only:
            from .tensor import no_grad

            with no_grad():
                out, aux = _split_output(self._fn(*arrays))
            return out.data, [], {k: v.data for k, v in aux.items()}
        loss, aux = _split_output(self._fn(*arrays))
        grads = _grad(loss, self._params, allow_unused=True)
        return (
            float(loss.data),
            [g.data for g in grads],
            {k: v.data for k, v in aux.items()},
        )

    def _disable(self, reason: str) -> None:
        self._disabled = reason
        self._cache.clear()
        self._count("fallbacks")

    def _mismatch(self, executor: TapeExecutor, replayed, direct) -> bool:
        """Whether a replay deviates from define-by-run beyond tolerance:
        ``_TOL`` at float64, the normalised
        :func:`repro.lower.budget.tape_budget` for reduced tiers."""
        tol = _TOL
        normalize = self._precision != "float64"
        if normalize:
            from ..lower.budget import tape_budget

            tol = max(tol, tape_budget(self._precision,
                                       executor.stats["recorded"]))
        (r_loss, r_grads, r_aux), (d_loss, d_grads, d_aux) = replayed, direct
        if r_aux.keys() != d_aux.keys():
            return True
        pairs = [(r_loss, d_loss), *zip(r_grads, d_grads),
                 *((v, d_aux[k]) for k, v in r_aux.items())]
        return any(_deviation(r, d, normalize) > tol for r, d in pairs)

    def __call__(self, *arrays):
        with self._lock:
            out = self._call_locked(arrays)
        return out[0] if self._forward_only else out

    def _call_locked(self, arrays) -> tuple:
        if self._disabled is not None:
            return self._direct(arrays)
        struct = tuple((a.shape, a.dtype.str) for a in arrays
                       if isinstance(a, np.ndarray))
        if len(struct) != len(arrays):
            self._disable("non-array step input")
            return self._direct(arrays)
        key = (self._precision,) + struct
        executor = self._cache.get(key)
        if executor is None:
            self._count("retraces" if self._cache else "misses")
            try:
                # A forward-only trace still runs with gradients enabled,
                # so analytic-gradient layers raise TapeFallback instead
                # of freezing their outputs as constants (see trace()).
                tape, result = trace(self._fn, arrays, self._params,
                                     forward_only=self._forward_only)
                if self._forward_only and not any(
                    kind == "input" for kind, _ in tape.binds
                ):
                    # The forward never touched a traced input (e.g. it
                    # captured op references that bypass the trace
                    # shims): replay would return the trace's values as
                    # constants forever.
                    raise TapeFallback(
                        "forward does not depend on any traced input"
                    )
                executor = tape.compile(precision=self._precision)
            except TapeFallback as exc:
                self._disable(str(exc))
                return self._direct(arrays)
            self._cache[key] = executor
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
            return result
        self._cache.move_to_end(key)
        self._count("hits")
        try:
            replayed = executor.replay(arrays)
        except Exception as exc:  # correctness first: any replay error reverts
            self._disable(f"replay error: {exc}")
            return self._direct(arrays)
        if executor.needs_validation:
            executor.needs_validation = False
            direct = self._direct(arrays)
            if self._mismatch(executor, replayed, direct):
                self._disable(("forward " if self._forward_only else "")
                              + "replay mismatch vs define-by-run")
                return direct
        return replayed


def compile_step(
    fn,
    params: Sequence[Tensor],
    name: str = "step",
    cache_size: int = 8,
    precision: str = "float64",
) -> CompiledStep:
    """Wrap ``fn(*arrays) -> loss | (loss, aux)`` into a :class:`CompiledStep`.

    ``params`` are the tensors whose gradients the step returns; they are
    read live on every replay, so optimiser updates between calls are
    honoured.  All other leaves are captured as constants — anything that
    changes per call must be one of the positional input arrays.

    ``precision="float32"`` replays the tape in float32 (inputs and live
    parameter reads are demoted per replay, folded constants once) and
    promotes the loss/gradients/aux back to float64; validation then uses
    the normalised :func:`repro.lower.budget.tape_budget` tolerance
    instead of the bitwise one.
    """
    return CompiledStep(fn, params, name=name, cache_size=cache_size,
                        precision=precision)


def compile_forward(
    fn,
    name: str = "forward",
    cache_size: int = 8,
    precision: str = "float64",
) -> CompiledStep:
    """Wrap a batched forward ``fn(*arrays) -> Tensor`` for inference.

    Returns a forward-only :class:`CompiledStep`: each input structure
    is traced once *without a backward pass* (the tape carries no
    gradient schedule, so replay allocates no grad or residual buffers)
    and replayed thereafter; calling it returns the output **array**.
    Replay is row-stable (:class:`TapeExecutor`), so a row's result does
    not depend on the batch it was coalesced into — the property the
    micro-batching server rests on.  That makes the replay differ from
    plain define-by-run BLAS by up to ~1 ulp on shapes BLAS handles
    batch-dependently, which validation's ``1e-12`` tolerance admits.
    Every leaf is a constant: weights are read live but no gradient is
    taken.
    """
    step = CompiledStep(fn, (), name=name, cache_size=cache_size,
                        precision=precision)
    step._forward_only = True
    return step
