"""Randomized cross-simulator equivalence harness.

~50 seeded random :class:`repro.torq.Circuit` programs (mixed
h/x/y/z/rx/ry/rz/rot/cnot/crz on 2–5 qubits with batch > 1) must produce
identical amplitudes and Z-expectations on three independent executors, to
1e-10: the compiled plan (fused kernels), the interpreted per-gate batched
backend, and the dense per-point ``torq.reference`` oracle.

The same programs also run through :mod:`repro.lower`'s in-place planned
executor at both precision tiers: the float64 lowering must be *bitwise*
identical to the compiled seed, and the float32/complex64 tier must agree
with the dense float64 oracle within the per-case error budgets from
:mod:`repro.lower.budget`, which scale with qubit and gate counts.
"""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import Tensor, no_grad
from repro.lower import (
    amplitude_budget,
    expectation_budget,
    gradient_budget,
    lower_plan,
)
from repro.torq import Circuit
from repro.torq.adjoint import adjoint_state_vjp
from repro.torq.reference import run_circuit, z_expectations_dense

SINGLE_FIXED = ("h", "x", "y", "z")
SINGLE_PARAM = ("rx", "ry", "rz")
N_CIRCUITS = 50


def _random_circuit(rng: np.random.Generator, batch: int):
    """One random program; parametrised gates mix literals, per-batch
    arrays, Tensors, and shared named parameters."""
    n_qubits = int(rng.integers(2, 6))
    qc = Circuit(n_qubits)
    named = {}
    n_gates = int(rng.integers(4, 14))

    def angle(name_hint):
        kind = rng.integers(0, 4)
        if kind == 0:  # literal float
            return float(rng.uniform(-2 * np.pi, 2 * np.pi))
        if kind == 1:  # per-batch ndarray
            return rng.uniform(-2 * np.pi, 2 * np.pi, batch)
        if kind == 2:  # per-batch Tensor
            return Tensor(rng.uniform(-2 * np.pi, 2 * np.pi, batch))
        name = f"{name_hint}{len(named)}"  # fresh named parameter
        named[name] = rng.uniform(-2 * np.pi, 2 * np.pi, batch)
        return name

    for _ in range(n_gates):
        kind = rng.integers(0, 5)
        q = int(rng.integers(0, n_qubits))
        if kind == 0:
            getattr(qc, str(rng.choice(SINGLE_FIXED)))(q)
        elif kind == 1:
            getattr(qc, str(rng.choice(SINGLE_PARAM)))(q, angle("a"))
        elif kind == 2:
            qc.rot(q, angle("r"), angle("r"), angle("r"))
        else:
            q2 = int(rng.integers(0, n_qubits))
            if q2 == q:
                q2 = (q + 1) % n_qubits
            if kind == 3:
                qc.cnot(q, q2)
            else:
                qc.crz(q, q2, angle("c"))
    return qc, named


@pytest.mark.parametrize("seed", range(N_CIRCUITS))
def test_random_circuit_equivalence(seed):
    rng = np.random.default_rng(1000 + seed)
    batch = int(rng.integers(2, 7))
    qc, named = _random_circuit(rng, batch)

    with no_grad():
        compiled_amps = qc.run(params=named, batch=batch, compiled=True).numpy()
        compiled_z = qc.z_expectations(params=named, batch=batch, compiled=True).data
        interp_amps = qc.run(params=named, batch=batch, compiled=False).numpy()
        interp_z = qc.z_expectations(params=named, batch=batch, compiled=False).data
    dense_amps = run_circuit(qc, params=named, batch=batch)
    dense_z = z_expectations_dense(dense_amps, qc.n_qubits)

    assert compiled_amps.shape == (batch, 2 ** qc.n_qubits)
    # all three executors agree pairwise
    np.testing.assert_allclose(compiled_amps, interp_amps, atol=1e-10, rtol=0)
    np.testing.assert_allclose(compiled_amps, dense_amps, atol=1e-10, rtol=0)
    np.testing.assert_allclose(interp_amps, dense_amps, atol=1e-10, rtol=0)
    np.testing.assert_allclose(compiled_z, dense_z, atol=1e-10, rtol=0)
    np.testing.assert_allclose(interp_z, dense_z, atol=1e-10, rtol=0)
    # every backend must preserve normalisation
    for amps in (compiled_amps, interp_amps):
        np.testing.assert_allclose(
            np.sum(np.abs(amps) ** 2, axis=1), 1.0, atol=1e-10, rtol=0
        )


@pytest.mark.parametrize("seed", range(N_CIRCUITS))
def test_random_circuit_lowered_tiers(seed):
    """Lowered execution of the same random programs, both tiers.

    float64 must reproduce the compiled seed *bitwise*;
    float32 must land within the size-scaled budgets against the dense
    float64 oracle (amplitudes, Z-expectations, and adjoint gradients).
    """
    rng = np.random.default_rng(1000 + seed)
    batch = int(rng.integers(2, 7))
    qc, named = _random_circuit(rng, batch)
    n = qc.n_qubits
    gates = qc.gate_sequence()
    values = qc.flat_parameter_values(named)
    n_gates = qc.execution_plan().n_gates

    with no_grad():
        seed_amps = qc.run(params=named, batch=batch, compiled=True).numpy()
        seed_z = qc.z_expectations(params=named, batch=batch,
                                   compiled=True).data
    dense_amps = run_circuit(qc, params=named, batch=batch)
    dense_z = z_expectations_dense(dense_amps, n)
    weights = np.random.default_rng(2000 + seed).standard_normal((batch, n))
    grads_seed = adjoint_state_vjp(gates, n, values, weights)

    lowered64 = lower_plan(gates, n, "float64")
    planes = lowered64.run_planes(batch, lambda i: values[i])
    assert np.array_equal(lowered64.amplitudes(planes), seed_amps)
    assert np.array_equal(lowered64.z_expectations(planes), seed_z)
    for a, b in zip(grads_seed, lowered64.adjoint_vjp(values, weights)):
        assert np.array_equal(np.asarray(a, dtype=np.float64),
                              np.asarray(b, dtype=np.float64))

    lowered32 = lower_plan(gates, n, "float32")
    planes32 = lowered32.run_planes(batch, lambda i: values[i])
    amps32 = lowered32.amplitudes(planes32)
    assert amps32.dtype == np.complex64
    amp_err = float(np.max(np.abs(amps32.astype(np.complex128)
                                  - dense_amps)))
    assert amp_err <= amplitude_budget("float32", n, n_gates)
    z_err = float(np.max(np.abs(
        lowered32.z_expectations(planes32).astype(np.float64) - dense_z
    )))
    assert z_err <= expectation_budget("float32", n, n_gates)
    grad_err = max(
        (float(np.max(np.abs(np.asarray(a, dtype=np.float64)
                             - np.asarray(b, dtype=np.float64))))
         for a, b in zip(grads_seed,
                         lowered32.adjoint_vjp(values, weights))),
        default=0.0,
    )
    assert grad_err <= gradient_budget("float32", n, n_gates)


def test_second_order_gradcheck_through_fused_plan():
    """d²/dθ² through a compiled plan exercising every fused step kind."""
    from repro.autodiff import check_double_grad, check_grad

    qc = (
        Circuit(3)
        .h(0).rz(0, "t").ry(0, "t")   # same-qubit run -> fused 2x2
        .x(1).cnot(1, 2)              # X/CNOT run -> basis permutation
        .crz(0, 2, "t").rz(2, 0.7)    # diagonal run -> phase mask
    )
    kinds = {s["kind"] for s in qc.execution_plan().describe()}
    assert {"fused_1q", "permutation", "phase_mask"} <= kinds

    def f(t):
        return ad.mean(qc.z_expectations(params={"t": t}, batch=1))

    check_grad(f, [np.array([0.37])])
    check_double_grad(f, [np.array([0.37])])


def test_equivalence_with_shared_named_parameter():
    """The same named parameter reused by several gates stays consistent."""
    batch = 3
    theta = np.array([0.3, -1.1, 2.4])
    qc = (
        Circuit(3)
        .h(0).ry(1, "theta").cnot(0, 2)
        .crz(1, 2, "theta").rot(0, "theta", 0.5, "theta")
    )
    with no_grad():
        fast = qc.run(params={"theta": theta}, batch=batch).numpy()
    dense = run_circuit(qc, params={"theta": theta}, batch=batch)
    np.testing.assert_allclose(fast, dense, atol=1e-10, rtol=0)

    # The lowered tiers must respect the shared index too: bitwise at
    # float64, within the amplitude budget at float32.
    gates = qc.gate_sequence()
    values = qc.flat_parameter_values({"theta": theta})
    lowered64 = lower_plan(gates, qc.n_qubits, "float64")
    amps64 = lowered64.amplitudes(
        lowered64.run_planes(batch, lambda i: values[i]))
    assert np.array_equal(amps64, fast)
    lowered32 = lower_plan(gates, qc.n_qubits, "float32")
    amps32 = lowered32.amplitudes(
        lowered32.run_planes(batch, lambda i: values[i]))
    budget = amplitude_budget("float32", qc.n_qubits,
                              qc.execution_plan().n_gates)
    assert float(np.max(np.abs(amps32.astype(np.complex128)
                               - dense))) <= budget
