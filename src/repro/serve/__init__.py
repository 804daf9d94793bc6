"""``repro.serve`` — inference serving: freeze/export + async micro-batching.

Training produces a model; serving needs an *artifact*.  This package
closes that gap in three layers:

* :mod:`repro.serve.bundle` — :func:`freeze_model` exports trained
  parameters, frozen buffers, and the architecture spec into a
  checksummed ``.rqb`` archive; :func:`load_bundle` rebuilds it into a
  :class:`FrozenModel` in any later process, bitwise.
* :mod:`repro.serve.frozen` — :class:`FrozenModel` serves batched
  ``predict`` with zero compilation after :meth:`~FrozenModel.warmup`:
  forward-only row-stable tape replay at float64 (each row bitwise
  independent of its batch), lowered planned execution with pinned
  TorQ plans at float32.
* :mod:`repro.serve.server` — :class:`Server` coalesces concurrent
  asyncio ``predict`` awaits into micro-batches under a
  :class:`BatchPolicy` (bounded queue, per-request deadlines, graceful
  drain) and scatters per-request slices back.  Row stability makes
  the coalescing invisible: batched answers equal unbatched answers.

:func:`stats` aggregates every cache the serving path leans on — TorQ
plan cache (with pin counts), lowered-plan LRU, zero-state bases, and
each live FrozenModel's executors/arenas — which the load benchmark
records in its environment block.
"""

from __future__ import annotations

from .bundle import (
    BUNDLE_FORMAT,
    BUNDLE_VERSION,
    BundleError,
    ModelType,
    freeze_model,
    load_bundle,
    read_bundle_meta,
    register_model_type,
    registered_model_types,
    verify_bundle,
)
from .frozen import FrozenModel, live_models
from .server import (
    BatchPolicy,
    ServeError,
    ServeOverload,
    ServeTimeout,
    Server,
    ServerClosed,
)

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_VERSION",
    "BundleError",
    "ModelType",
    "register_model_type",
    "registered_model_types",
    "freeze_model",
    "load_bundle",
    "verify_bundle",
    "read_bundle_meta",
    "FrozenModel",
    "live_models",
    "BatchPolicy",
    "Server",
    "ServeError",
    "ServeOverload",
    "ServeTimeout",
    "ServerClosed",
    "stats",
]


def stats() -> dict:
    """One snapshot of every cache the serving path relies on.

    ``{"plan_cache", "lowered_cache", "zero_state_cache",
    "frozen_models", "arena_bytes"}`` —
    ``frozen_models`` carries per-model executor cache hit rates and
    buffer/arena footprints; ``arena_bytes`` totals them.  Safe to call
    concurrently with serving traffic (every underlying cache is
    locked).
    """
    from ..lower import lowered_cache_info
    from ..torq.compile import plan_cache_info
    from ..torq.state import zero_cache_info

    models = [fm.cache_info() for fm in live_models()]
    return {
        "plan_cache": plan_cache_info(),
        "lowered_cache": lowered_cache_info(),
        "zero_state_cache": zero_cache_info(),
        "frozen_models": models,
        "arena_bytes": sum(int(m.get("arena_bytes", 0)) for m in models),
    }
