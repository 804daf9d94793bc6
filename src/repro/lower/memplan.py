"""Plan-time memory planning: liveness analysis and carrier arenas.

One planner serves both executors that replay a fixed schedule:

* the lowered statevector executor (:mod:`repro.lower.inplace`), whose
  pack buffers, GEMM outputs, gathered planes and adjoint carriers are
  megabyte-class at 14 qubits — page-fault and zeroing cost on every
  step, and a transient peak of many live statevectors, if allocated
  per step;
* the autodiff tape executor (:class:`repro.autodiff.tape.TapeExecutor`),
  whose ``out=`` and fused-kernel scratch buffers would otherwise be one
  per schedule entry for the executor's lifetime.

Both declare their buffers the same way:

* Every intermediate a planned execution will ever need is declared up
  front as a :class:`BufferSpec` — a byte size plus a live interval over
  a virtual timeline of execution positions (forward steps, readout,
  adjoint init, reverse steps; or tape schedule entries).
* :func:`plan_buffers` runs a linear-scan liveness analysis over the
  specs (classic register allocation on intervals): two requests share
  one arena *slot* whenever their live intervals are disjoint, and each
  slot's capacity is the maximum request assigned to it.
* :class:`Arena` materialises the plan as one flat ``uint8`` buffer per
  slot and hands out dtype/shape/stride *views* into them.  Nothing is
  allocated after construction; re-running a planned execution reuses
  the same memory.

Slots are raw bytes, so a float32 pack buffer from the forward sweep can
be reused as a complex64 adjoint carrier later on the timeline — the
liveness analysis, not the dtype, decides reuse.  Each arena reports its
footprint through the ``lower.arena.bytes`` counter (under profiling),
labelled ``executor="lowered"`` or ``executor="tape"`` so the two tiers'
figures stay apart, and via :attr:`Arena.total_bytes` for benchmark
reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs

__all__ = ["BufferSpec", "MemoryPlan", "Arena", "plan_buffers"]


@dataclass(frozen=True)
class BufferSpec:
    """One buffer request: ``nbytes`` live over ``[first, last]``.

    ``first``/``last`` are inclusive positions on the executor's virtual
    timeline.  Two specs may share an arena slot iff their intervals do
    not overlap.
    """

    name: str
    nbytes: int
    first: int
    last: int

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValueError(f"negative buffer size for {self.name!r}")
        if self.last < self.first:
            raise ValueError(
                f"buffer {self.name!r}: last {self.last} < first {self.first}"
            )


class MemoryPlan:
    """The result of liveness analysis: spec name -> arena slot.

    ``slots`` is a list of slot capacities in bytes; ``assign`` maps each
    spec name to its slot index.  ``total_bytes`` is the arena footprint;
    ``naive_bytes`` is what per-spec allocation would have cost — the
    ratio is the planner's win, asserted on in tests.
    """

    def __init__(self, specs: list[BufferSpec], slots: list[int],
                 assign: dict[str, int]):
        self.specs = {s.name: s for s in specs}
        self.slots = slots
        self.assign = assign
        self.total_bytes = int(sum(slots))
        self.naive_bytes = int(sum(s.nbytes for s in specs))

    def slot_of(self, name: str) -> int:
        return self.assign[name]

    def describe(self) -> dict:
        """Summary record for audit trails and benchmark reports."""
        return {
            "n_buffers": len(self.specs),
            "n_slots": len(self.slots),
            "total_bytes": self.total_bytes,
            "naive_bytes": self.naive_bytes,
        }


def plan_buffers(specs: list[BufferSpec]) -> MemoryPlan:
    """Linear-scan interval allocation of buffer specs onto arena slots.

    Specs are scanned in ``(first, -nbytes)`` order; each is placed on
    the free slot with the largest capacity (so big requests gravitate
    to big slots and small ones do not inflate fresh slots), or a new
    slot when every existing one is still live.  Deterministic for a
    given spec list — the assignment is part of the plan, not of any
    particular run.
    """
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate buffer spec names")
    order = sorted(specs, key=lambda s: (s.first, -s.nbytes, s.name))
    slot_caps: list[int] = []
    slot_free_at: list[int] = []  # first timeline position the slot is free
    assign: dict[str, int] = {}
    for spec in order:
        best = -1
        for i, free_at in enumerate(slot_free_at):
            if free_at <= spec.first:
                if best < 0 or slot_caps[i] > slot_caps[best]:
                    best = i
        if best < 0:
            best = len(slot_caps)
            slot_caps.append(spec.nbytes)
            slot_free_at.append(spec.last + 1)
        else:
            slot_caps[best] = max(slot_caps[best], spec.nbytes)
            slot_free_at[best] = spec.last + 1
        assign[spec.name] = best
    return MemoryPlan(list(specs), slot_caps, assign)


class Arena:
    """Preallocated carrier memory backing one planned execution.

    One contiguous ``uint8`` array per plan slot.  :meth:`view` returns
    a dtype/shape view of a named buffer's slot prefix;
    :meth:`strided_view` additionally applies explicit strides (the tape
    executor uses this to mirror the layout a traced kernel produced,
    on which downstream reduction order — and therefore bitwise
    equality with define-by-run — depends).  Views alias slot memory: a
    buffer's contents are only valid inside its declared live interval.
    ``executor`` labels the ``lower.arena.bytes`` counter with the
    arena's owner.
    """

    def __init__(self, plan: MemoryPlan, executor: str = "lowered"):
        self.plan = plan
        self._slots = [np.empty(cap, dtype=np.uint8) for cap in plan.slots]
        self.total_bytes = plan.total_bytes
        if obs.is_profiling():
            obs.metrics().counter(
                "lower.arena.bytes", executor=executor
            ).inc(self.total_bytes)

    def view(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """A C-contiguous ``dtype`` view of buffer ``name``."""
        dtype = np.dtype(dtype)
        n = int(np.prod(shape)) if shape else 1
        nbytes = n * dtype.itemsize
        spec = self.plan.specs[name]
        if nbytes > spec.nbytes:
            raise ValueError(
                f"view of {name!r} needs {nbytes} bytes, "
                f"spec declared {spec.nbytes}"
            )
        raw = self._slots[self.plan.assign[name]]
        return raw[:nbytes].view(dtype).reshape(shape)

    def strided_view(self, name: str, shape: tuple, dtype,
                     strides: tuple) -> np.ndarray:
        """A view of ``name`` with explicit strides (layout matching).

        Sized by the strides' *span*, not the element count — mirrored
        layouts may be gapped (e.g. a slice of a wider buffer), in which
        case the view addresses more bytes than it has elements.
        """
        dtype = np.dtype(dtype)
        if any(s < 0 for s in strides):
            raise ValueError("negative strides cannot back an arena view")
        span = sum(
            s * (d - 1) for s, d in zip(strides, shape)
        ) + dtype.itemsize
        flat = self.view(name, (span // dtype.itemsize,), dtype)
        return np.lib.stride_tricks.as_strided(
            flat, shape=shape, strides=strides
        )
