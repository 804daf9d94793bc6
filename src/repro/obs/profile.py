"""Op-level autodiff profiling — zero overhead unless enabled.

When :func:`profile` is active, every public operation in
:mod:`repro.autodiff.ops` is wrapped with a counting/timing shim, and the
reverse-mode engine's VJP dispatch reports per-op backward calls through
:data:`repro.autodiff.tensor` 's hook point.  The wrappers are installed by
*rebinding the module attributes* of ``repro.autodiff.ops`` and the
``repro.autodiff`` package (which re-exports every op), so

* internal op-to-op calls (VJP closures resolve names in ``ops`` module
  globals at call time),
* ``Tensor`` operator methods (``__add__`` etc. delegate to those same
  globals), and
* user code calling ``ad.sin(...)`` / ``ops.mul(...)``

all route through the shims — while the *disabled* path runs the original,
unwrapped functions with no conditional checks at all.

Recorded per op, into the global registry:

* ``autodiff.op`` timers labeled ``op=<name>, pass=forward`` — call count
  and inclusive wall time of the forward computation,
* ``autodiff.op`` timers labeled ``op=<name>, pass=backward`` — VJP
  evaluations attributed to the op that created the graph node.

Profiled forward ops also tag their output tensors with the op name (the
``Tensor.name`` slot), which is how backward VJPs are attributed.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Iterator

from . import registry as _registry

__all__ = ["profile", "is_profiling", "enable_profiling", "disable_profiling"]


_active = False
_depth = 0
_originals: dict[str, object] = {}


def is_profiling() -> bool:
    """Whether the autodiff/torq profiling hooks are currently installed."""
    return _active


def _wrap_op(name: str, fn, reg: _registry.MetricsRegistry):
    from ..autodiff.tensor import Tensor

    # Created on first call so ops that never run stay out of snapshots.
    timer = None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        nonlocal timer
        if timer is None:
            timer = reg.timer("autodiff.op", _kind="op", op=name, **{"pass": "forward"})
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        timer.observe(time.perf_counter() - start)
        if type(out) is Tensor and out.name is None:
            out.name = name
        return out

    return wrapped


def _backward_hook_factory(reg: _registry.MetricsRegistry):
    def hook(node, vjp, cotangent):
        op = node.name or "<leaf>"
        timer = reg.timer("autodiff.op", _kind="op", op=op, **{"pass": "backward"})
        start = time.perf_counter()
        out = vjp(cotangent)
        timer.observe(time.perf_counter() - start)
        return out

    return hook


def enable_profiling(reg: _registry.MetricsRegistry | None = None) -> None:
    """Install the autodiff profiling shims (idempotent)."""
    global _active
    if _active:
        return
    from ..autodiff import tensor as tensor_mod
    from ..autodiff.ops import rebind_ops

    reg = reg if reg is not None else _registry.metrics()
    _originals.update(rebind_ops(lambda name, fn: _wrap_op(name, fn, reg)))
    tensor_mod.set_backward_hook(_backward_hook_factory(reg))
    _active = True


def disable_profiling() -> None:
    """Remove the shims, restoring the original zero-overhead functions."""
    global _active
    if not _active:
        return
    from ..autodiff import tensor as tensor_mod
    from ..autodiff.ops import rebind_ops

    rebind_ops(lambda name, _wrapped: _originals[name])
    _originals.clear()
    tensor_mod.set_backward_hook(None)
    _active = False


@contextlib.contextmanager
def profile(reg: _registry.MetricsRegistry | None = None) -> Iterator[_registry.MetricsRegistry]:
    """Context manager enabling op-level profiling for the enclosed block.

    Nested uses are reference-counted; the shims are removed when the
    outermost context exits.  Yields the registry receiving the data.
    """
    global _depth
    reg = reg if reg is not None else _registry.metrics()
    if _depth == 0:
        enable_profiling(reg)
    _depth += 1
    try:
        yield reg
    finally:
        _depth -= 1
        if _depth == 0:
            disable_profiling()
