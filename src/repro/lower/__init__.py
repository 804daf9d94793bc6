"""Backend lowering: precision tiers and in-place planned execution.

``repro.lower`` takes a compiled TorQ
:class:`~repro.torq.compile.ExecutionPlan` and runs it as raw NumPy
kernels over split real/imaginary statevector planes at a precision tier
— the measured (tape-free) path behind
``QuantumLayer(precision="float32", grad_method="adjoint")`` and
float32 serving.  The precision string is the only input: there are no
passes, kernel variants or environment switches to choose among.

Entry points:

* :func:`lower_plan` — compile + lower a gate sequence at ``precision``
  (``"float64"`` or ``"float32"``); cached on the circuit structure and
  the tier, so tiers never alias each other's artifacts.
* :func:`audit_plan` — per-op error-budget accounting: run a lowered
  plan step by step against the float64 seed plan and report each step's
  amplitude deviation.
* :mod:`repro.lower.budget` — the documented error budgets the float32
  tier is tested against.

One executor.  Every :class:`LoweredPlan` runs through the
:class:`~repro.lower.inplace.PlannedExecution` bound to its batch size,
created on first use and kept for the plan's lifetime (one per batch
size served, so a serving bucket ladder binds each arena once).  All
intermediates — plane ping-pongs, SoA pack buffers, phase scratches,
complex adjoint carriers — are liveness-planned into shared arena slots
(:mod:`repro.lower.memplan`), and after the first run forward, readout
and (float32) adjoint perform **zero statevector-sized allocations**.
``LoweredPlan.memory_report()`` returns the arena audit per bound batch.

The tiers:

* ``float64`` — bitwise identical to the seed executor: amplitudes, ⟨Z⟩
  (the readout layout is probed once from an allocating seed-order
  forward) and adjoint gradients (the reverse sweep runs the seed
  ``adjoint_step`` kernels from the arena's final planes).
* ``float32`` — statevector work in float32/complex64, parameter-space
  algebra in float64, inside the :mod:`~repro.lower.budget` error
  budgets.  Each fused single-qubit run is one real 4×4 block-GEMM over
  the SoA-packed planes — broadcast over ``(batch, pre, 4, post)``, or
  one ``(4, N)`` column GEMM for a batch-independent matrix over a
  short ``post`` extent — and the adjoint runs in place on the arena.

``run_planes`` returns arena views stamped with their run;
``adjoint_vjp(values, weights, planes=...)`` re-runs the forward for
``values`` in place when a later forward at the same batch size has
overwritten the arena, so two forwards before one backward still give
the first forward's gradient.

Config surfaces: ``QuantumLayer(precision="float32")`` (requires
``grad_method="adjoint"``), ``FrozenModel``/``load_bundle(precision=)``,
``TrainerConfig.precision`` / ``PDETrainerConfig.precision`` (the tape
replay tier), and ``compile_step(fn, params, precision=...)`` directly.
Every cache involved — lowered plans, tape executors, ``zero_state``
frozen bases — incorporates the tier in its key.

Tape lowering (the float32 replay tier) lives in
:func:`repro.autodiff.tape.compile_step` via its ``precision`` argument;
this package supplies its budget and shares the tier vocabulary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .budget import (
    amplitude_budget,
    expectation_budget,
    gradient_budget,
    tape_budget,
)
from .inplace import PlannedExecution
from .memplan import Arena, BufferSpec, MemoryPlan, plan_buffers
from .plan_exec import PRECISION_TIERS, LoweredPlan

__all__ = [
    "LoweredPlan",
    "PRECISION_TIERS",
    "lower_plan",
    "audit_plan",
    "clear_lowered_cache",
    "lowered_cache_info",
    "amplitude_budget",
    "expectation_budget",
    "gradient_budget",
    "tape_budget",
    "BufferSpec",
    "MemoryPlan",
    "Arena",
    "plan_buffers",
    "PlannedExecution",
]


# Lowered plans are tiny (they borrow the seed plan's precomputed
# buffers) but each owns its bound arenas, so repeated lowering must hit
# the same object; same LRU discipline as the plan cache underneath.
_LOWERED_CACHE: "OrderedDict[tuple, LoweredPlan]" = OrderedDict()
_LOWERED_CACHE_MAX = 512
# The serve path rehydrates lowered plans from executor threads while
# the front end polls cache stats.
_lowered_cache_lock = threading.RLock()


def lower_plan(gates, n_qubits: int, precision: str = "float64",
               cache: bool = True) -> LoweredPlan:
    """Compile a gate sequence and lower it to ``precision``.

    Keyed on the same circuit-structure key as the plan cache *plus* the
    tier, so a float32 and a float64 lowering of one circuit never share
    an artifact.  ``cache=False`` builds a fresh, unshared plan.
    """
    from ..torq.compile import compile_gates

    gates = tuple(gates)
    plan = compile_gates(gates, n_qubits, cache=cache)
    if not cache:
        return LoweredPlan(plan, precision)
    key = (
        n_qubits,
        tuple((g.name, g.qubits, g.params) for g in gates),
        precision,
    )
    with _lowered_cache_lock:
        lowered = _LOWERED_CACHE.get(key)
        if lowered is not None and lowered.plan is plan:
            _LOWERED_CACHE.move_to_end(key)
            return lowered
    lowered = LoweredPlan(plan, precision)
    with _lowered_cache_lock:
        existing = _LOWERED_CACHE.get(key)
        if existing is not None and existing.plan is plan:
            # A concurrent caller lowered the same structure; share it.
            _LOWERED_CACHE.move_to_end(key)
            return existing
        if len(_LOWERED_CACHE) >= _LOWERED_CACHE_MAX:
            _LOWERED_CACHE.popitem(last=False)
        _LOWERED_CACHE[key] = lowered
    return lowered


def clear_lowered_cache() -> None:
    """Drop every cached lowered plan (test hook)."""
    with _lowered_cache_lock:
        _LOWERED_CACHE.clear()


def lowered_cache_info() -> dict:
    """Cache statistics: ``{"size", "capacity"}``."""
    with _lowered_cache_lock:
        return {"size": len(_LOWERED_CACHE), "capacity": _LOWERED_CACHE_MAX}


def audit_plan(lowered: LoweredPlan, values, batch: int | None = None) -> list[dict]:
    """Per-op error-budget accounting against the float64 seed plan.

    Runs the lowered plan's planned executor and the seed
    :class:`ExecutionPlan` side by side from |0…0⟩ and records, after
    every step, the max-abs deviation of the lowered amplitudes from the
    float64 oracle.  ``values`` is the flat parameter list (floats or
    ``(batch,)`` arrays).  Returns a list of ``{"kind", "gates",
    "max_abs_err"}`` records in step order — the float64 tier reports
    0.0 everywhere.  The audit is a forward run: it overwrites the arena
    bound to ``batch``.
    """
    from ..autodiff import no_grad
    from ..torq.state import zero_state

    if batch is None:
        batch = 1
        for v in values:
            arr = np.asarray(getattr(v, "data", v))
            if arr.ndim == 1:
                batch = int(arr.shape[0])
                break

    def resolve(i: int):
        return values[i]

    tensor = zero_state(batch, lowered.n_qubits).tensor
    planned = lowered.planned_execution(batch).forward_steps(resolve)
    records = []
    with no_grad():
        for seed_step, step, (re, im) in zip(
            lowered.plan.steps, lowered.steps, planned
        ):
            tensor = seed_step(tensor, resolve)
            err = max(
                float(np.max(np.abs(re.astype(np.float64) - tensor.re.data))),
                float(np.max(np.abs(im.astype(np.float64) - tensor.im.data))),
            )
            records.append(
                {"kind": step.kind, "gates": list(step.gates),
                 "max_abs_err": err}
            )
    return records
