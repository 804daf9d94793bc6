"""FrozenModel: zero-compilation batched inference over a trained model.

The serving contract has three legs:

* **Zero compilation after warmup.**  Batch sizes are rounded up to a
  small set of power-of-two *buckets* (``min_batch`` … ``max_batch``)
  so the whole steady state fits a handful of compiled artifacts:
  forward-only tape executors (float64), or lowered planned executions
  and pinned TorQ plans (float32).  :meth:`warmup` drives every bucket
  through its trace and its validated first replay up front; after it
  returns, ``predict`` never compiles, traces, or plans again.

* **Batch-invariant rows.**  The float64 tier replays through
  :func:`repro.autodiff.tape.compile_forward`, whose kernels are
  row-stable: every row of a prediction is bitwise identical no matter
  which batch (or padding) it was coalesced into.  This is the property
  the micro-batching server's split-and-scatter rests on — a request's
  answer cannot depend on its batch neighbours.

* **No gradient residue.**  Forward-only tapes carry no backward
  schedule, so replay allocates no grad or residual buffers at all, and
  each executor replays in one liveness-planned arena: ``cache_info()``
  reports the arenas as ``arena_bytes`` and the folded constants the
  schedules read (a quantum layer's transfer matrix, one per bucket) as
  ``folded_bytes``, the tier's whole replay footprint.

Requests larger than ``max_batch`` are processed in ``max_batch``
chunks; smaller ones are zero-padded up to their bucket (padding rows
are computed and discarded — row stability makes that exact, not just
approximate).
"""

from __future__ import annotations

import math
import threading
import weakref

import numpy as np

__all__ = ["FrozenModel"]

# Live FrozenModels, so serve.stats() can aggregate executor caches and
# arena bytes without the caller threading instances around.
_LIVE: "weakref.WeakSet[FrozenModel]" = weakref.WeakSet()


def live_models() -> list:
    """Snapshot of FrozenModel instances still alive in this process."""
    return list(_LIVE)


def _walk_modules(module):
    yield module
    for child in module._modules.values():
        yield from _walk_modules(child)


def _quantum_layers(model) -> list:
    from ..torq.layer import QuantumLayer

    return [m for m in _walk_modules(model) if isinstance(m, QuantumLayer)]


class FrozenModel:
    """A trained model frozen for batched, thread-safe inference.

    Built by :func:`repro.serve.load_bundle` (or directly from a live
    model via :func:`repro.serve.freeze_model`'s return path).  The only
    hot entry point is :meth:`predict`; everything else is warmup and
    introspection.
    """

    def __init__(self, model, model_type, spec: dict, meta: dict | None = None,
                 precision: str = "float64", max_batch: int = 1024,
                 min_batch: int = 32):
        if max_batch < 1 or min_batch < 1 or min_batch > max_batch:
            raise ValueError(
                f"need 1 <= min_batch <= max_batch, got "
                f"{min_batch}/{max_batch}"
            )
        self.model = model
        self.model_type = model_type
        self.spec = dict(spec)
        self.meta = dict(meta or {})
        self.precision = str(precision)
        self.max_batch = int(max_batch)
        self.min_batch = int(min_batch)
        self.in_dim = int(model_type.in_dim(spec))
        self.out_dim: int | None = None
        self._lock = threading.RLock()
        self._warmed: tuple[int, ...] = ()
        self._pinned: list[tuple] = []
        self._calls = 0
        self._rows = 0
        self._padded_rows = 0
        self._forward = model_type.adapt(model)
        self._quantum = _quantum_layers(model)
        self._compiled = None
        if self.precision == "float64":
            from ..autodiff.tape import compile_forward

            # One executor per bucket; size the LRU so warmup's buckets
            # never evict each other.
            buckets = self._bucket_ladder()
            self._compiled = compile_forward(
                self._forward,
                name=f"serve.{model_type.name}",
                precision="float64",
                cache_size=len(buckets) + 2,
            )
        else:
            from ..lower import PRECISION_TIERS

            if self.precision not in PRECISION_TIERS:
                raise ValueError(
                    f"unknown precision tier {self.precision!r}; "
                    f"available: {PRECISION_TIERS}"
                )
            # Route every quantum layer through the lowered planned tier.
            for layer in self._quantum:
                layer.precision = self.precision
        _LIVE.add(self)

    def _bucket_ladder(self) -> tuple[int, ...]:
        sizes = []
        b = self.min_batch
        while b < self.max_batch:
            sizes.append(b)
            b *= 2
        sizes.append(self.max_batch)
        return tuple(sizes)

    def bucket_for(self, n: int) -> int:
        """The padded batch size a chunk of ``n`` rows executes at."""
        if n >= self.max_batch:
            return self.max_batch
        if n <= self.min_batch:
            return self.min_batch
        return min(self.max_batch, 1 << math.ceil(math.log2(n)))

    # ------------------------------------------------------------------
    def warmup(self, batch_sizes=None) -> tuple[int, ...]:
        """Compile every serving bucket ahead of traffic.

        Each bucket runs two passes.  For the float64 tier they are the
        trace and the first replay, checked against define-by-run; for
        lowered tiers they bind the planned executions, and quantum plans
        are pinned into the TorQ cache so later compile traffic cannot
        evict them.  Returns the warmed buckets.
        """
        buckets = tuple(
            sorted({self.bucket_for(int(b)) for b in batch_sizes})
        ) if batch_sizes else self._bucket_ladder()
        # Fresh random in-domain rows per pass: if a broken forward ever
        # folded the inputs into constants, the validated replay pass
        # would see changing inputs with a frozen answer and revert to
        # define-by-run instead of serving the constant.
        rng = np.random.default_rng(0)
        with self._lock:
            from ..torq.compile import pin_plan

            for layer in self._quantum:
                key = (layer.embedded_gate_sequence(), layer.n_qubits)
                pin_plan(*key)
                self._pinned.append(key)
            for bucket in buckets:
                for _ in range(2):
                    batch = rng.uniform(
                        -1.0, 1.0, size=(bucket, self.in_dim)
                    )
                    self._predict_chunk(batch)
            self._warmed = tuple(sorted(set(self._warmed) | set(buckets)))
        return self._warmed

    def unpin(self) -> None:
        """Release the TorQ plan pins taken by :meth:`warmup`."""
        from ..torq.compile import unpin_plan

        with self._lock:
            for key in self._pinned:
                unpin_plan(*key)
            self._pinned.clear()

    # ------------------------------------------------------------------
    def _run(self, batch: np.ndarray) -> np.ndarray:
        if self._compiled is not None:
            return self._compiled(batch)
        from ..autodiff import no_grad

        with no_grad():
            return self._forward(batch).data

    def _predict_chunk(self, chunk: np.ndarray) -> np.ndarray:
        n = chunk.shape[0]
        bucket = self.bucket_for(n)
        if bucket != n:
            padded = np.zeros((bucket, self.in_dim), dtype=np.float64)
            padded[:n] = chunk
            self._padded_rows += bucket - n
        else:
            padded = np.ascontiguousarray(chunk)
        out = self._run(padded)
        if self.out_dim is None:
            self.out_dim = int(out.shape[1]) if out.ndim > 1 else 1
        # Executor-owned buffer: copy before it is overwritten by the
        # next replay.
        return np.array(out[:n], copy=True)

    def predict(self, points) -> np.ndarray:
        """Batched inference: ``(N, in_dim)`` float64 → ``(N, out_dim)``.

        Thread-safe (calls are serialised — replay reuses executor-owned
        buffers).  Rows are batch-invariant at float64: the result for
        any row is bitwise identical whether it is predicted alone, in a
        coalesced batch, or zero-padded to a larger bucket.
        """
        points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != self.in_dim:
            raise ValueError(
                f"predict expects (N, {self.in_dim}) points, got "
                f"shape {points.shape}"
            )
        n = points.shape[0]
        with self._lock:
            if n == 0:
                width = self.out_dim if self.out_dim is not None else 1
                return np.zeros((0, width), dtype=np.float64)
            self._calls += 1
            self._rows += n
            if n <= self.max_batch:
                return self._predict_chunk(points)
            parts = [
                self._predict_chunk(points[i:i + self.max_batch])
                for i in range(0, n, self.max_batch)
            ]
            return np.concatenate(parts, axis=0)

    def __call__(self, points) -> np.ndarray:
        return self.predict(points)

    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Serving-cache introspection for ``repro.serve.stats()``."""
        with self._lock:
            info = {
                "model_type": self.model_type.name,
                "precision": self.precision,
                "in_dim": self.in_dim,
                "out_dim": self.out_dim,
                "min_batch": self.min_batch,
                "max_batch": self.max_batch,
                "warmed_buckets": list(self._warmed),
                "pinned_plans": len(self._pinned),
                "calls": self._calls,
                "rows": self._rows,
                "padded_rows": self._padded_rows,
            }
            if self._compiled is not None:
                # The executors' arenas and the folded constants their
                # schedules read are all a warm float64 tier holds
                # between replays (fresh kernel results die in-replay).
                info["tape"] = self._compiled.cache_info()
                info["arena_bytes"] = info["tape"]["buffer_bytes"]
                info["folded_bytes"] = info["tape"]["folded_bytes"]
            else:
                reports = {}
                arena = 0
                from ..lower import lower_plan

                for i, layer in enumerate(self._quantum):
                    lowered = lower_plan(
                        layer.embedded_gate_sequence(), layer.n_qubits
                    )
                    report = lowered.memory_report()
                    reports[f"quantum{i}"] = report
                    for rec in report.values():
                        arena += int(rec.get("arena_bytes", 0))
                info["planned"] = reports
                info["arena_bytes"] = arena
            return info
