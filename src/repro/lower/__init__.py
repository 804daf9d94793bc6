"""Backend lowering: the float32 tier, executed in place.

``repro.lower`` takes a compiled TorQ
:class:`~repro.torq.compile.ExecutionPlan` and runs its forward as raw
NumPy kernels over split real/imaginary float32 statevector planes — the
inference-only path behind ``QuantumLayer(precision="float32")`` and
float32 serving.  The tier has no gradient: a float32 layer refuses to
run in grad mode.  Lowering takes nothing but the circuit: there are no
passes, kernel variants, tiers or environment switches to choose among.
Float64 work does not lower: ``QuantumLayer`` runs the seed plan and
:mod:`repro.torq.adjoint`, ``FrozenModel`` the compiled tape.

Entry points:

* :func:`lower_plan` — compile + lower a gate sequence; cached on the
  circuit structure.
* :func:`audit_plan` — per-op error-budget accounting: run a lowered
  plan step by step against the float64 seed plan and report each step's
  amplitude deviation.
* :mod:`repro.lower.budget` — the documented error budgets the float32
  tier is tested against.
* :data:`PRECISION_TIERS` — the ``precision=`` vocabulary of
  ``QuantumLayer``, ``FrozenModel`` and the tape (defined in
  :mod:`repro.lower.budget`).

One executor.  Every :class:`LoweredPlan` runs through the
:class:`~repro.lower.inplace.PlannedExecution` bound to its batch size,
created on first use and kept for the plan's lifetime (one per batch
size served, so a serving bucket ladder binds each arena once).  Every
lowered step is a fused single-qubit block GEMM, a phase mask or a
permutation — a lone gate lowers to the one-gate step of its kind — and
all intermediates (plane ping-pongs, SoA pack buffers, phase scratches,
the readout scratch) are liveness-planned into shared arena slots
(:mod:`repro.lower.memplan`), so after the first run forward and
readout perform **zero statevector-sized allocations**.
``LoweredPlan.memory_report()`` returns the arena audit per bound batch.
State-sized work runs in float32/complex64 and the 2×2 factor matrices
are built in float64, inside the :mod:`~repro.lower.budget` error
budgets.  ``LoweredPlan.z_expectations(batch, resolve)`` and
``amplitudes(batch, resolve)`` run the forward and return fresh arrays;
no arena view leaves the package.

Config surfaces: ``QuantumLayer(precision="float32")`` (inference only,
any ``grad_method``), ``FrozenModel``/``load_bundle(precision=)``,
``TrainerConfig.precision`` / ``PDETrainerConfig.precision`` (the tape
replay tier), and ``compile_step(fn, params, precision=...)`` directly.
Tape lowering (the float32 replay tier) lives in
:func:`repro.autodiff.tape.compile_step`, whose executor cache keys on
the tier; this package supplies its budget and the tier vocabulary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .budget import (
    PRECISION_TIERS,
    amplitude_budget,
    expectation_budget,
    tape_budget,
)
from .inplace import LoweredPlan, PlannedExecution
from .memplan import Arena, BufferSpec, MemoryPlan, plan_buffers

__all__ = [
    "LoweredPlan",
    "PRECISION_TIERS",
    "lower_plan",
    "audit_plan",
    "clear_lowered_cache",
    "lowered_cache_info",
    "amplitude_budget",
    "expectation_budget",
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


def lower_plan(gates, n_qubits: int) -> LoweredPlan:
    """Compile a gate sequence and lower it to the float32 tier.

    Keyed on the plan cache's circuit-structure key, so lowering one
    structure again returns the same plan and its bound arenas.
    """
    from ..torq.compile import _plan_key, compile_gates

    gates = tuple(gates)
    plan = compile_gates(gates, n_qubits)
    key = _plan_key(gates, n_qubits)
    with _lowered_cache_lock:
        lowered = _LOWERED_CACHE.get(key)
        if lowered is not None and lowered.plan is plan:
            _LOWERED_CACHE.move_to_end(key)
            return lowered
    lowered = LoweredPlan(plan)
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
    "max_abs_err"}`` records in step order.  The audit is a forward run:
    it overwrites the arena bound to ``batch``.
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

    planned = lowered.planned_execution(batch).forward_steps(resolve)
    records = []
    with no_grad():
        seed = lowered.plan.step_states(
            zero_state(batch, lowered.n_qubits), resolve
        )
        for tensor, step, (re, im) in zip(seed, lowered.steps, planned):
            err = max(
                float(np.max(np.abs(re.astype(np.float64) - tensor.re.data))),
                float(np.max(np.abs(im.astype(np.float64) - tensor.im.data))),
            )
            records.append(
                {"kind": step.kind, "gates": list(step.gates),
                 "max_abs_err": err}
            )
    return records
