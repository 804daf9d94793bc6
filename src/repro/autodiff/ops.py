"""Differentiable operations for the autodiff engine.

Every operation follows the same pattern: compute the forward value with a
single vectorised NumPy call, then register per-parent VJP callbacks built
*from Tensor operations* so that backward passes are themselves
differentiable (enabling the double backward that PINN training requires).

Broadcasting follows NumPy semantics; gradients of broadcast operands are
summed back down to the operand shape by :func:`_sum_to_shape`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor, as_tensor, make_node

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow", "matmul",
    "exp", "log", "sin", "cos", "tan", "tanh", "sinh", "cosh",
    "arcsin", "arccos", "arctan", "sqrt", "square", "absolute",
    "sigmoid", "softplus", "relu", "sign",
    "maximum", "minimum", "clip", "where",
    "reshape", "transpose", "moveaxis", "expand_dims", "squeeze",
    "broadcast_to", "concatenate", "stack", "flip", "roll", "getitem",
    "permute_last",
    "scatter_add", "tensor_sum", "mean", "amax", "amin", "dot_last",
]

#: operations the profiler (:mod:`repro.obs.profile`) wraps when enabled.
#: Internal calls resolve these names in this module's globals at call
#: time, so rebinding the attributes instruments the whole engine.
PROFILED_OPS = tuple(__all__)


def rebind_ops(make) -> dict:
    """Rebind every op in :data:`PROFILED_OPS` to ``make(name, fn)``.

    Rebinds this module's attribute and the ``repro.autodiff`` re-export
    (where it still points at the same function), so op-to-op calls,
    ``Tensor`` operators and user code all reach the new binding — the
    mechanism of the profiler and of the tape tracer.  Returns the
    previous bindings; ``rebind_ops(lambda name, _fn: previous[name])``
    restores them.
    """
    from .. import autodiff as package

    module = globals()
    previous: dict = {}
    for name in PROFILED_OPS:
        fn = previous[name] = module[name]
        module[name] = new = make(name, fn)
        if getattr(package, name, None) is fn:
            setattr(package, name, new)
    return previous


#: operations whose VJP closures capture data-dependent constants (masks,
#: signs, argmax positions) frozen at forward time.  Replaying a recorded
#: call would reuse stale constants, so :mod:`repro.autodiff.tape` falls
#: back to define-by-run when a traced step uses one of these.
DATA_DEPENDENT_OPS = (
    "absolute", "relu", "maximum", "minimum", "clip", "where", "amax", "amin",
)


# ----------------------------------------------------------------------
# Broadcasting helpers
# ----------------------------------------------------------------------

def _sum_to_shape(t: Tensor, shape: tuple) -> Tensor:
    """Reduce ``t`` (a cotangent) down to ``shape`` undoing broadcasting."""
    if t.shape == shape:
        return t
    # Sum away leading axes added by broadcasting.
    extra = t.ndim - len(shape)
    if extra > 0:
        t = tensor_sum(t, axis=tuple(range(extra)))
    # Sum axes that were broadcast from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and t.shape[i] != 1)
    if axes:
        t = tensor_sum(t, axis=axes, keepdims=True)
    if t.shape != shape:
        t = reshape(t, shape)
    return t


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------

def add(a, b) -> Tensor:
    """Elementwise a + b with NumPy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    return make_node(out, [
        (a, lambda ct: _sum_to_shape(ct, a.shape)),
        (b, lambda ct: _sum_to_shape(ct, b.shape)),
    ])


def sub(a, b) -> Tensor:
    """Elementwise a − b with NumPy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    return make_node(out, [
        (a, lambda ct: _sum_to_shape(ct, a.shape)),
        (b, lambda ct: _sum_to_shape(neg(ct), b.shape)),
    ])


def mul(a, b) -> Tensor:
    """Elementwise a · b with NumPy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    return make_node(out, [
        (a, lambda ct: _sum_to_shape(mul(ct, b), a.shape)),
        (b, lambda ct: _sum_to_shape(mul(ct, a), b.shape)),
    ])


def div(a, b) -> Tensor:
    """Elementwise a / b with NumPy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    return make_node(out, [
        (a, lambda ct: _sum_to_shape(div(ct, b), a.shape)),
        (b, lambda ct: _sum_to_shape(neg(div(mul(ct, a), mul(b, b))), b.shape)),
    ])


def neg(a) -> Tensor:
    """Elementwise negation."""
    a = as_tensor(a)
    return make_node(-a.data, [(a, lambda ct: neg(ct))])


def pow(a, exponent) -> Tensor:
    """``a ** exponent`` for scalar or tensor exponents."""
    a = as_tensor(a)
    if isinstance(exponent, (int, float)) and not isinstance(exponent, bool):
        p = float(exponent)
        out = a.data ** p
        if p == 0.0:
            return make_node(out, [(a, lambda ct: mul(ct, 0.0))])
        return make_node(out, [
            (a, lambda ct: mul(ct, mul(p, pow(a, p - 1.0)))),
        ])
    b = as_tensor(exponent)
    out = a.data ** b.data
    return make_node(out, [
        (a, lambda ct: _sum_to_shape(mul(ct, mul(b, pow(a, sub(b, 1.0)))), a.shape)),
        # pow(a, b) recomputed to keep the graph acyclic (see exp)
        (b, lambda ct: _sum_to_shape(mul(ct, mul(pow(a, b), log(a))), b.shape)),
    ])


def matmul(a, b) -> Tensor:
    """Matrix product with NumPy batching semantics (operands >= 2-D)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands with at least 2 dimensions")
    out = a.data @ b.data

    def vjp_a(ct: Tensor) -> Tensor:
        g = matmul(ct, transpose(b, _swap_last(b.ndim)))
        return _sum_to_shape(g, a.shape)

    def vjp_b(ct: Tensor) -> Tensor:
        g = matmul(transpose(a, _swap_last(a.ndim)), ct)
        return _sum_to_shape(g, b.shape)

    return make_node(out, [(a, vjp_a), (b, vjp_b)])


def _swap_last(ndim: int) -> tuple:
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


def dot_last(a, b) -> Tensor:
    """Contraction over the last axis: ``sum(a * b, axis=-1)``.

    Convenience composite used by measurement and loss code; expressed with
    primitive ops so it inherits their differentiability.
    """
    return tensor_sum(mul(a, b), axis=-1)


# ----------------------------------------------------------------------
# Elementwise transcendental functions
# ----------------------------------------------------------------------

def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    # The VJP recomputes exp(a) rather than closing over the output node:
    # capturing the output would create a reference cycle (node → vjp →
    # node), forcing graph reclamation onto the cycle collector and causing
    # multi-second GC pauses on large PINN graphs.
    return make_node(np.exp(a.data), [(a, lambda ct: mul(ct, exp(a)))])


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    return make_node(np.log(a.data), [(a, lambda ct: div(ct, a))])


def sin(a) -> Tensor:
    """Elementwise sine."""
    a = as_tensor(a)
    return make_node(np.sin(a.data), [(a, lambda ct: mul(ct, cos(a)))])


def cos(a) -> Tensor:
    """Elementwise cosine."""
    a = as_tensor(a)
    return make_node(np.cos(a.data), [(a, lambda ct: neg(mul(ct, sin(a))))])


def tan(a) -> Tensor:
    """Elementwise tangent."""
    a = as_tensor(a)
    def vjp(ct: Tensor) -> Tensor:
        y = tan(a)  # recomputed to keep the graph acyclic (see exp)
        return mul(ct, add(1.0, mul(y, y)))
    return make_node(np.tan(a.data), [(a, vjp)])


def tanh(a) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = as_tensor(a)
    def vjp(ct: Tensor) -> Tensor:
        y = tanh(a)  # recomputed to keep the graph acyclic (see exp)
        return mul(ct, sub(1.0, mul(y, y)))
    return make_node(np.tanh(a.data), [(a, vjp)])


def sinh(a) -> Tensor:
    """Elementwise hyperbolic sine."""
    a = as_tensor(a)
    return make_node(np.sinh(a.data), [(a, lambda ct: mul(ct, cosh(a)))])


def cosh(a) -> Tensor:
    """Elementwise hyperbolic cosine."""
    a = as_tensor(a)
    return make_node(np.cosh(a.data), [(a, lambda ct: mul(ct, sinh(a)))])


def arcsin(a) -> Tensor:
    """Elementwise inverse sine."""
    a = as_tensor(a)
    return make_node(
        np.arcsin(a.data),
        [(a, lambda ct: div(ct, sqrt(sub(1.0, mul(a, a)))))],
    )


def arccos(a) -> Tensor:
    """Elementwise inverse cosine."""
    a = as_tensor(a)
    return make_node(
        np.arccos(a.data),
        [(a, lambda ct: neg(div(ct, sqrt(sub(1.0, mul(a, a))))))],
    )


def arctan(a) -> Tensor:
    """Elementwise inverse tangent."""
    a = as_tensor(a)
    return make_node(
        np.arctan(a.data),
        [(a, lambda ct: div(ct, add(1.0, mul(a, a))))],
    )


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = as_tensor(a)
    return make_node(
        np.sqrt(a.data),
        # recomputed to keep the graph acyclic (see exp)
        [(a, lambda ct: div(ct, mul(2.0, sqrt(a))))],
    )


def square(a) -> Tensor:
    """Elementwise square."""
    a = as_tensor(a)
    return make_node(np.square(a.data), [(a, lambda ct: mul(ct, mul(2.0, a)))])


def absolute(a) -> Tensor:
    """Elementwise absolute value (sign subgradient)."""
    a = as_tensor(a)
    s = np.sign(a.data)
    return make_node(np.abs(a.data), [(a, lambda ct: mul(ct, Tensor(s)))])


def sign(a) -> Tensor:
    """Sign function; gradient is zero almost everywhere."""
    a = as_tensor(a)
    return make_node(np.sign(a.data), [(a, lambda ct: mul(ct, 0.0))])


def sigmoid(a) -> Tensor:
    """Elementwise logistic sigmoid."""
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    def vjp(ct: Tensor) -> Tensor:
        y = sigmoid(a)  # recomputed to keep the graph acyclic (see exp)
        return mul(ct, mul(y, sub(1.0, y)))
    return make_node(out, [(a, vjp)])


def softplus(a) -> Tensor:
    """Elementwise softplus log(1 + e^a) (stable)."""
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)
    return make_node(out, [(a, lambda ct: mul(ct, sigmoid(a)))])


def relu(a) -> Tensor:
    """Elementwise max(a, 0)."""
    a = as_tensor(a)
    mask = (a.data > 0).astype(a.data.dtype)
    return make_node(a.data * mask, [(a, lambda ct: mul(ct, Tensor(mask)))])


# ----------------------------------------------------------------------
# Piecewise / comparison-based ops (masks are constants w.r.t. the graph)
# ----------------------------------------------------------------------

def maximum(a, b) -> Tensor:
    """Elementwise maximum with tie subgradient to the first arg."""
    a, b = as_tensor(a), as_tensor(b)
    out = np.maximum(a.data, b.data)
    mask = (a.data >= b.data).astype(out.dtype)
    mask = np.broadcast_to(mask, out.shape).copy()
    return make_node(out, [
        (a, lambda ct: _sum_to_shape(mul(ct, Tensor(mask)), a.shape)),
        (b, lambda ct: _sum_to_shape(mul(ct, Tensor(1.0 - mask)), b.shape)),
    ])


def minimum(a, b) -> Tensor:
    """Elementwise minimum with tie subgradient to the first arg."""
    a, b = as_tensor(a), as_tensor(b)
    out = np.minimum(a.data, b.data)
    mask = (a.data <= b.data).astype(out.dtype)
    mask = np.broadcast_to(mask, out.shape).copy()
    return make_node(out, [
        (a, lambda ct: _sum_to_shape(mul(ct, Tensor(mask)), a.shape)),
        (b, lambda ct: _sum_to_shape(mul(ct, Tensor(1.0 - mask)), b.shape)),
    ])


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp into [lo, hi]; zero gradient outside."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = ((a.data >= lo) & (a.data <= hi)).astype(out.dtype)
    return make_node(out, [(a, lambda ct: mul(ct, Tensor(mask)))])


def where(cond, a, b) -> Tensor:
    """Select ``a`` where ``cond`` else ``b``; no gradient flows to cond."""
    cond_arr = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    mask = cond_arr.astype(bool)
    a, b = as_tensor(a), as_tensor(b)
    out = np.where(mask, a.data, b.data)
    fmask = np.broadcast_to(mask, out.shape).astype(out.dtype)
    return make_node(out, [
        (a, lambda ct: _sum_to_shape(mul(ct, Tensor(fmask)), a.shape)),
        (b, lambda ct: _sum_to_shape(mul(ct, Tensor(1.0 - fmask)), b.shape)),
    ])


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    """View the tensor with a new shape."""
    a = as_tensor(a)
    shape = tuple(shape) if isinstance(shape, (list, tuple)) else (shape,)
    old = a.shape
    return make_node(a.data.reshape(shape), [(a, lambda ct: reshape(ct, old))])


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes (reversed by default)."""
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return make_node(
        a.data.transpose(axes), [(a, lambda ct: transpose(ct, inv))]
    )


def moveaxis(a, source: int, destination: int) -> Tensor:
    """Move one axis to a new position."""
    a = as_tensor(a)
    return make_node(
        np.moveaxis(a.data, source, destination),
        [(a, lambda ct: moveaxis(ct, destination, source))],
    )


def expand_dims(a, axis: int) -> Tensor:
    """Insert a singleton axis."""
    a = as_tensor(a)
    old = a.shape
    return make_node(
        np.expand_dims(a.data, axis), [(a, lambda ct: reshape(ct, old))]
    )


def squeeze(a, axis: int | None = None) -> Tensor:
    """Drop singleton axes."""
    a = as_tensor(a)
    old = a.shape
    out = np.squeeze(a.data, axis=axis) if axis is not None else np.squeeze(a.data)
    return make_node(out, [(a, lambda ct: reshape(ct, old))])


def broadcast_to(a, shape) -> Tensor:
    """Materialise a broadcast view of the given shape."""
    a = as_tensor(a)
    old = a.shape
    return make_node(
        np.broadcast_to(a.data, shape).copy(),
        [(a, lambda ct: _sum_to_shape(ct, old))],
    )


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along an existing axis."""
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    parents = []
    offset = 0
    for t in tensors:
        n = t.shape[axis]
        start, stop = offset, offset + n
        index = [slice(None)] * out.ndim
        index[axis] = slice(start, stop)
        index = tuple(index)
        parents.append((t, lambda ct, ix=index: getitem(ct, ix)))
        offset = stop
    return make_node(out, parents)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)
    parents = []
    for i, t in enumerate(tensors):
        index = [slice(None)] * out.ndim
        index[axis] = i
        index = tuple(index)
        parents.append((t, lambda ct, ix=index: getitem(ct, ix)))
    return make_node(out, parents)


def flip(a, axis: int) -> Tensor:
    """Reverse along one axis."""
    a = as_tensor(a)
    return make_node(np.flip(a.data, axis=axis), [(a, lambda ct: flip(ct, axis))])


def roll(a, shift: int, axis: int) -> Tensor:
    """Circularly shift along one axis."""
    a = as_tensor(a)
    return make_node(
        np.roll(a.data, shift, axis=axis),
        [(a, lambda ct: roll(ct, -shift, axis))],
    )


def permute_last(a, indices) -> Tensor:
    """Reorder the last axis by a permutation index array (gather).

    ``indices`` must visit every position of the last axis exactly once;
    the VJP is then a gather by the inverse permutation, avoiding the
    buffered ``np.add.at`` scatter that general fancy indexing needs, and
    double backward is exact.  Used by the TorQ circuit compiler to replay
    fused CNOT/X runs as a single basis relabeling.
    """
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.shape[0] != a.shape[-1]:
        raise ValueError(
            f"permutation length {idx.shape} does not match last axis of {a.shape}"
        )
    inverse = np.empty_like(idx)
    inverse[idx] = np.arange(idx.shape[0], dtype=np.intp)
    return make_node(
        np.array(a.data[..., idx], copy=True),
        [(a, lambda ct: permute_last(ct, inverse))],
    )


def getitem(a, index) -> Tensor:
    """Basic and integer-array indexing with a scatter-add VJP."""
    a = as_tensor(a)
    out = a.data[index]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out)
    shape = a.shape
    return make_node(
        np.array(out, copy=True),
        [(a, lambda ct: scatter_add(ct, index, shape))],
    )


def _is_basic_index(index) -> bool:
    """True when ``index`` uses only ints/slices/Ellipsis (no fancy arrays).

    Basic indexing selects each element at most once, so the scatter in
    :func:`scatter_add` can use direct assignment instead of the much
    slower buffered ``np.add.at``.
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(item, (int, np.integer, slice)) or item is Ellipsis
        for item in items
    )


def scatter_add(ct, index, shape) -> Tensor:
    """Zeros of ``shape`` with ``ct`` added at ``index`` (VJP of getitem).

    Advanced (integer-array) indices may repeat elements and use
    ``np.add.at`` to accumulate; basic indices cannot repeat, so they take
    the fast direct-assignment path.  The VJP is ``getitem`` of the
    incoming cotangent, so double backward through indexing works.
    """
    ct = as_tensor(ct)
    out = np.zeros(shape, dtype=ct.data.dtype if ct.data.dtype.kind == "f" else np.float64)
    if _is_basic_index(index):
        out[index] = ct.data
    else:
        np.add.at(out, index, ct.data)
    return make_node(out, [(ct, lambda g: getitem(g, index))])


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over the given axes (keepdims supported)."""
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def vjp(ct: Tensor) -> Tensor:
        if axis is None:
            return broadcast_to(reshape(ct, (1,) * len(shape)), shape)
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(ax % len(shape) for ax in axes)
        if keepdims:
            return broadcast_to(ct, shape)
        kept = list(ct.shape)
        for ax in sorted(axes):
            kept.insert(ax, 1)
        return broadcast_to(reshape(ct, tuple(kept)), shape)

    return make_node(out, [(a, vjp)])


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over the given axes (keepdims supported)."""
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax % a.ndim]
    return div(tensor_sum(a, axis=axis, keepdims=keepdims), float(count))


def _extremum(a, axis, keepdims, np_fn, cmp) -> Tensor:
    a = as_tensor(a)
    out = np_fn(a.data, axis=axis, keepdims=keepdims)
    out_keep = np_fn(a.data, axis=axis, keepdims=True)
    mask = cmp(a.data, out_keep).astype(a.data.dtype)
    # Split ties evenly so the subgradient sums to the cotangent.
    denom = mask.sum(axis=axis, keepdims=True)
    mask = mask / denom
    shape = a.shape

    def vjp(ct: Tensor) -> Tensor:
        if axis is None:
            expanded = reshape(ct, (1,) * len(shape))
        elif keepdims:
            expanded = ct
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            kept = list(ct.shape)
            for ax in sorted(ax % len(shape) for ax in axes):
                kept.insert(ax, 1)
            expanded = reshape(ct, tuple(kept))
        return mul(broadcast_to(expanded, shape), Tensor(mask))

    return make_node(out, [(a, vjp)])


def amax(a, axis=None, keepdims: bool = False) -> Tensor:
    """Maximum over the given axes (ties split the gradient)."""
    return _extremum(a, axis, keepdims, np.max, np.equal)


def amin(a, axis=None, keepdims: bool = False) -> Tensor:
    """Minimum over the given axes (ties split the gradient)."""
    return _extremum(a, axis, keepdims, np.min, np.equal)


# ----------------------------------------------------------------------
# Attach operator protocol and convenience methods to Tensor
# ----------------------------------------------------------------------

def _install_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, other: pow(self, other)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, index: getitem(self, index)
    # Comparisons return plain boolean arrays for mask construction.
    Tensor.__lt__ = lambda self, other: self.data < _raw(other)
    Tensor.__le__ = lambda self, other: self.data <= _raw(other)
    Tensor.__gt__ = lambda self, other: self.data > _raw(other)
    Tensor.__ge__ = lambda self, other: self.data >= _raw(other)
    # Methods.
    Tensor.sum = lambda self, axis=None, keepdims=False: tensor_sum(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
    Tensor.max = lambda self, axis=None, keepdims=False: amax(self, axis, keepdims)
    Tensor.min = lambda self, axis=None, keepdims=False: amin(self, axis, keepdims)
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    )
    Tensor.transpose = lambda self, axes=None: transpose(self, axes)
    Tensor.T = property(lambda self: transpose(self))


def _raw(value):
    return value.data if isinstance(value, Tensor) else value


_install_operators()
