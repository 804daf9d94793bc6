"""Error budgets for reduced-precision lowering, and per-op auditing.

The float32 tier is only usable because its deviation from the float64
oracle is *bounded and checked*, never assumed.  The budgets below are
deliberately conservative first-order rounding models:

* every gate application rounds each amplitude with relative error at
  most a few ulp of the tier (``eps = 1.19e-7`` for float32);
* unitarity keeps amplitude magnitudes ≤ 1, so per-gate absolute error
  is O(eps) and accumulates at most linearly in gate count (random
  rounding cancels to ~sqrt(n_gates) in practice — the linear bound is
  the budget, the sqrt behaviour is what tests actually observe);
* a ⟨Z⟩ readout sums ``2**n_qubits`` squared amplitudes, scaling the
  amplitude budget by ``sqrt(dim)`` in the 2-norm-to-max-abs conversion.

:func:`audit_plan` executes a lowered plan step by step next to the seed
float64 plan and reports the max-abs amplitude deviation introduced per
step — the "per-op error-budget accounting" used by the equivalence
tests and the benchmark reports.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PRECISION_TIERS",
    "amplitude_budget",
    "expectation_budget",
    "tape_budget",
]

_EPS = {"float64": 0.0, "float32": float(np.finfo(np.float32).eps)}

#: Precision tiers of the measured paths: ``float64`` runs the seed
#: arithmetic (the compiled plan, or the serving tape), ``float32`` the
#: lowered plan (or the float32 tape replay).  The ``precision=``
#: vocabulary of ``QuantumLayer``, ``FrozenModel`` and the tape.
PRECISION_TIERS: tuple[str, ...] = tuple(_EPS)


def _eps(precision: str) -> float:
    try:
        return _EPS[precision]
    except KeyError:
        raise ValueError(f"unknown precision tier {precision!r}") from None


def amplitude_budget(precision: str, n_qubits: int, n_gates: int) -> float:
    """Max-abs statevector-amplitude tolerance vs the float64 oracle.

    ``0.0`` for the float64 tier (the contract there is bitwise
    equality, not a tolerance).  For float32 the budget is
    ``eps32 * (16 + 4*n_gates) * sqrt(n_qubits)`` — linear in circuit
    depth with a small constant headroom for the embedding and readout,
    and a mild qubit-count scale for the fan-in of fused kernels.
    """
    eps = _eps(precision)
    if eps == 0.0:
        return 0.0
    return float(eps * (16.0 + 4.0 * max(int(n_gates), 1))
                 * np.sqrt(max(int(n_qubits), 1)))


def expectation_budget(precision: str, n_qubits: int, n_gates: int) -> float:
    """Per-qubit ⟨Z⟩ tolerance: the amplitude budget through the Born
    rule, ``2 * sqrt(2**n_qubits)`` worse in the worst case."""
    amp = amplitude_budget(precision, n_qubits, n_gates)
    return float(2.0 * np.sqrt(2.0 ** int(n_qubits)) * amp)


def tape_budget(precision: str, n_entries: int = 256) -> float:
    """Normalised tolerance for float32 tape replay vs the float64 step.

    Applied as ``max|r - d| / (1 + max|d|)`` per output array: relative
    for large gradients, absolute near zero.  Scales with the square
    root of the schedule length (elementwise kernels round
    independently; reductions accumulate pairwise).
    """
    eps = _eps(precision)
    if eps == 0.0:
        return 0.0
    return float(eps * 64.0 * np.sqrt(max(int(n_entries), 1)))
