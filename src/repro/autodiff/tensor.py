"""Core tensor type and reverse-mode differentiation machinery.

This module implements a small define-by-run automatic differentiation
engine over NumPy arrays, designed as a drop-in substrate for the subset of
PyTorch semantics the QPINN paper relies on:

* reverse-mode vector-Jacobian products (VJPs),
* ``grad(..., create_graph=True)`` — the VJP of every operation is itself
  expressed with differentiable tensor operations, so gradients can be
  differentiated again (double backward).  This is what lets a PINN compute
  PDE residuals (derivatives of network outputs w.r.t. inputs) and then
  optimise a loss built from those residuals w.r.t. the parameters,
* ``no_grad`` contexts for optimiser updates and plain evaluation,
* NumPy-style broadcasting with correct gradient "unbroadcasting".

Performance notes (see the HPC guides): every operation is a whole-array
NumPy call, collocation points are always batched along the leading axis,
and graph bookkeeping is kept to ``__slots__``-based nodes with tuple
parent lists.  There are no per-element Python loops anywhere in the hot
path.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "grad",
    "backward",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "zeros",
    "ones",
    "full",
    "arange",
    "linspace",
]


_state = threading.local()

def set_backward_hook(hook: Callable | None) -> None:
    """Install (or clear, with ``None``) the profiler's VJP dispatch hook.

    The hook is invoked as ``hook(node, vjp, cotangent)`` in place of the
    plain ``vjp(cotangent)`` call and must return the parent cotangent.
    The hook is thread-local: installing it (e.g. via
    :mod:`repro.obs.profile`) only instruments backward passes running on
    the installing thread, so concurrent trainers don't race.  ``None``
    (the default) keeps the backward loop on a branch-predicted fast path
    with no callbacks.
    """
    _state.backward_hook = hook


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return getattr(_state, "grad_enabled", True)


def _set_grad_enabled(mode: bool) -> bool:
    prev = is_grad_enabled()
    _state.grad_enabled = bool(mode)
    return prev


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (like ``torch.no_grad``)."""
    prev = _set_grad_enabled(False)
    try:
        yield
    finally:
        _set_grad_enabled(prev)


@contextlib.contextmanager
def enable_grad():
    """Context manager re-enabling graph recording inside a ``no_grad``."""
    prev = _set_grad_enabled(True)
    try:
        yield
    finally:
        _set_grad_enabled(prev)


# A VJP callback maps the cotangent of the node output to the cotangent of
# one particular parent.  It must be written with Tensor operations so that
# it stays differentiable when ``create_graph=True``.
VjpFn = Callable[["Tensor"], "Tensor"]


class Tensor:
    """A NumPy-backed array node in a dynamically-built autodiff graph.

    Leaf tensors are created directly from data; interior nodes are created
    by the operations in :mod:`repro.autodiff.ops` and carry references to
    their parents together with per-parent VJP callbacks.

    Attributes
    ----------
    data:
        The underlying ``np.ndarray`` (always at least 0-d float array).
    requires_grad:
        Whether gradients should flow to (or through) this tensor.
    grad:
        Populated by :func:`backward` on leaves: an ``np.ndarray`` with the
        accumulated gradient, or ``None``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple = (),
        name: str | None = None,
    ):
        if isinstance(data, np.ndarray) and data.dtype.kind == "f":
            arr = data  # fast path: float ndarray used as-is
        else:
            if isinstance(data, Tensor):  # pragma: no cover - defensive
                data = data.data
            arr = np.asarray(data)
            if arr.dtype.kind in "ib":
                arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._parents = _parents if self.requires_grad else ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """NumPy dtype of the underlying array."""
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        """True when this tensor has no recorded parents."""
        return not self._parents

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    # ------------------------------------------------------------------
    # Conversion helpers
    # ------------------------------------------------------------------
    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view; do not mutate)."""
        return self.data

    def item(self) -> float:
        """The value of a one-element tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data, cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Deep copy of the data as a new leaf tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Clear this tensor's accumulated gradient (sets ``grad`` to None)."""
        self.grad = None

    # Operator methods (``__add__`` etc.) are attached by
    # :mod:`repro.autodiff.ops` at import time to avoid a circular import.


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def make_node(data: np.ndarray, parents: Sequence[tuple[Tensor, VjpFn]]) -> Tensor:
    """Create an interior graph node from op output data and parent VJPs.

    ``parents`` pairs each contributing input tensor with the VJP callback
    that maps the node's cotangent to that input's cotangent.  Parents that
    do not require gradients are dropped so backward traversals only touch
    the differentiable subgraph.
    """
    if not is_grad_enabled():
        return Tensor(data)
    kept = tuple((p, fn) for p, fn in parents if p.requires_grad)
    if not kept:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=kept)


# ----------------------------------------------------------------------
# Reverse-mode engine
# ----------------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order topological sort of the differentiable graph."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        nid = id(node)
        if nid in visited:
            continue
        visited.add(nid)
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def grad(
    output: Tensor,
    inputs: Sequence[Tensor] | Tensor,
    grad_output: Tensor | None = None,
    create_graph: bool = False,
    allow_unused: bool = False,
) -> list[Tensor]:
    """Compute d(output)/d(input) for every tensor in ``inputs``.

    Only VJPs whose parent can reach a requested input run: a residual's
    ``create_graph`` pass with respect to the coordinates computes (and
    records) no cotangent for the parameters.

    Parameters
    ----------
    output:
        The tensor to differentiate.  If not scalar, ``grad_output`` (the
        cotangent seeding the backward pass) must be supplied.
    inputs:
        Tensors with respect to which gradients are returned.
    grad_output:
        Cotangent of ``output``; defaults to ``1`` for scalar outputs.
    create_graph:
        When ``True`` the returned gradients are themselves graph nodes and
        can be differentiated again (double backward).
    allow_unused:
        When ``True``, inputs unreachable from ``output`` yield zero
        gradients instead of raising.

    Returns
    -------
    list[Tensor]
        One gradient tensor per input, each with the input's shape.
    """
    single = isinstance(inputs, Tensor)
    input_list: list[Tensor] = [inputs] if single else list(inputs)
    for t in input_list:
        if not isinstance(t, Tensor):
            raise TypeError(f"grad() inputs must be Tensors, got {type(t)!r}")

    if grad_output is None:
        if output.size != 1:
            raise ValueError(
                "grad() of a non-scalar output requires an explicit grad_output"
            )
        seed = Tensor(np.ones_like(output.data))
    else:
        seed = as_tensor(grad_output)
        if seed.shape != output.shape:
            raise ValueError(
                f"grad_output shape {seed.shape} != output shape {output.shape}"
            )

    if not output.requires_grad:
        if allow_unused:
            return [Tensor(np.zeros_like(t.data)) for t in input_list]
        raise RuntimeError("output does not require grad; nothing to differentiate")

    cotangents: dict[int, Tensor] = {id(output): seed}
    order = _topo_order(output)
    input_ids = _ids(input_list)
    # Only a parent that reaches a requested input needs a cotangent.  The
    # post-order lists parents before children, so one pass marks every
    # such node; a kept cotangent still receives every contribution it
    # would without the pruning, in the same order.
    reaches = set(input_ids)
    for node in order:
        for parent, _ in node._parents:
            if id(parent) in reaches:
                reaches.add(id(node))
                break

    hook = getattr(_state, "backward_hook", None)
    ctx = enable_grad() if create_graph else no_grad()
    with ctx:
        for node in reversed(order):
            ct = cotangents.pop(id(node), None)
            if ct is None:
                continue
            for parent, vjp in node._parents:
                pid = id(parent)
                if pid not in reaches:
                    continue
                contribution = vjp(ct) if hook is None else hook(node, vjp, ct)
                existing = cotangents.get(pid)
                if existing is None:
                    cotangents[pid] = contribution
                else:
                    # ``+`` is the differentiable Tensor add installed by ops.
                    cotangents[pid] = existing + contribution
            # Keep input cotangents alive even if the input also appears as
            # an interior node (e.g. an input reused downstream).
            if id(node) in input_ids:
                cotangents[id(node)] = ct

    results: list[Tensor] = []
    for t in input_list:
        g = cotangents.get(id(t))
        if g is None:
            if not allow_unused:
                raise RuntimeError(
                    "an input is unreachable from the output; pass "
                    "allow_unused=True to get a zero gradient instead"
                )
            g = Tensor(np.zeros_like(t.data))
        results.append(g)
    return results


def _ids(tensors: Iterable[Tensor]) -> set[int]:
    return {id(t) for t in tensors}


def backward(loss: Tensor, params: Sequence[Tensor]) -> None:
    """Accumulate d(loss)/d(p) into ``p.grad`` for each parameter.

    This is the optimisation entry point: gradients are plain NumPy arrays
    (no graph) and accumulate additively like in PyTorch, so callers must
    zero them between steps.
    """
    grads = grad(loss, list(params), create_graph=False, allow_unused=True)
    for p, g in zip(params, grads):
        if p.grad is None:
            p.grad = g.data.copy()
        else:
            p.grad += g.data


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------

def zeros(shape, requires_grad: bool = False) -> Tensor:
    """All-zeros tensor of the given shape."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    """All-ones tensor of the given shape."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def full(shape, fill_value: float, requires_grad: bool = False) -> Tensor:
    """Constant tensor filled with ``fill_value``."""
    return Tensor(np.full(shape, float(fill_value)), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    """Float range tensor (``np.arange`` semantics)."""
    return Tensor(np.arange(*args, dtype=np.float64), requires_grad=requires_grad)


def linspace(start, stop, num, requires_grad: bool = False) -> Tensor:
    """Evenly spaced samples over [start, stop]."""
    return Tensor(np.linspace(start, stop, num), requires_grad=requires_grad)
