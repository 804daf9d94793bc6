"""Randomized cross-simulator equivalence harness.

~50 seeded random :class:`repro.torq.Circuit` programs (mixed
h/x/y/z/rx/ry/rz/rot/cnot/crz on 2–5 qubits with batch > 1) must produce
identical amplitudes and Z-expectations on three independent executors, to
1e-10: the compiled plan (fused kernels), the interpreted per-gate batched
backend, and the dense per-point ``torq.reference`` oracle.

The same programs also run through :mod:`repro.lower`'s in-place planned
float32/complex64 executor, which must agree with the dense float64
oracle (amplitudes, Z-expectations) within the per-case error budgets
from :mod:`repro.lower.budget`, which scale with qubit and gate counts.
"""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import Tensor, no_grad
from repro.lower import (
    amplitude_budget,
    expectation_budget,
    lower_plan,
)
from repro.torq import (
    ANSATZ_NAMES,
    Circuit,
    apply_ansatz,
    make_ansatz,
    pauli_z_expectations,
    rx_product_state,
)
from repro.torq.ansatz import GateSpec
from repro.torq.reference import run_circuit, run_gates, z_expectations_dense

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
    assert {s.kind for s in qc.execution_plan().steps} <= {
        "fused_1q", "phase_mask", "permutation"}

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
    """Lowered float32 execution of the same random programs.

    Every lowered step runs in place; amplitudes and Z-expectations must
    land within the size-scaled budgets against the dense float64
    oracle.
    """
    rng = np.random.default_rng(1000 + seed)
    batch = int(rng.integers(2, 7))
    qc, named = _random_circuit(rng, batch)
    n = qc.n_qubits
    gates = qc.gate_sequence()
    values = qc.flat_parameter_values(named)
    n_gates = qc.execution_plan().n_gates

    dense_amps = run_circuit(qc, params=named, batch=batch)
    dense_z = z_expectations_dense(dense_amps, n)

    lowered32 = lower_plan(gates, n)
    assert {s.kind for s in lowered32.steps} <= {
        "fused_1q", "phase_mask", "permutation"}
    amps32 = lowered32.amplitudes(batch, lambda i: values[i])
    assert amps32.dtype == np.complex64
    amp_err = float(np.max(np.abs(amps32.astype(np.complex128)
                                  - dense_amps)))
    assert amp_err <= amplitude_budget("float32", n, n_gates)
    z_err = float(np.max(np.abs(
        lowered32.z_expectations(batch, lambda i: values[i]) - dense_z
    )))
    assert z_err <= expectation_budget("float32", n, n_gates)


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

    # The lowered float32 tier must respect the shared index too.
    gates = qc.gate_sequence()
    values = qc.flat_parameter_values({"theta": theta})
    lowered32 = lower_plan(gates, qc.n_qubits)
    amps32 = lowered32.amplitudes(batch, lambda i: values[i])
    budget = amplitude_budget("float32", qc.n_qubits,
                              qc.execution_plan().n_gates)
    assert float(np.max(np.abs(amps32.astype(np.complex128)
                               - dense))) <= budget


@pytest.mark.parametrize("ansatz", ANSATZ_NAMES)
@pytest.mark.parametrize("per_batch", [False, True], ids=["shared", "per_batch"])
def test_ansatz_through_the_gate_table(ansatz, per_batch):
    """The compiled plan's blocks come from its gate table; the
    interpreted per-gate path and the dense oracle keep their own
    arithmetic.  Amplitudes, and first- and second-order parameter
    gradients, agree within 1e-12 with shared ``(P,)`` and per-batch
    ``(batch, P)`` parameters."""
    n, batch = 4, 3
    circuit = make_ansatz(ansatz, n_qubits=n, n_layers=2)
    rng = np.random.default_rng(len(ansatz) + per_batch)
    angles = rng.uniform(-np.pi, np.pi, (batch, n))
    shape = (batch, circuit.param_count) if per_batch else (circuit.param_count,)
    theta = rng.uniform(0.0, 2 * np.pi, shape)
    w = rng.normal(size=(batch, n))

    def run(compiled, params):
        state = rx_product_state(Tensor(angles))
        return apply_ansatz(state, circuit, params, compiled=compiled)

    def grads(compiled):
        params = Tensor(theta, requires_grad=True)
        z = pauli_z_expectations(run(compiled, params))
        (g,) = ad.grad((z * w).sum(), [params], create_graph=True)
        (gg,) = ad.grad((g * g).sum(), [params])
        return g.data, gg.data

    with no_grad():
        table = run(True, Tensor(theta)).numpy()
        interpreted = run(False, Tensor(theta)).numpy()
    gates = [GateSpec("rx", (q,), (q,)) for q in range(n)] + [
        GateSpec(g.name, g.qubits, tuple(i + n for i in g.params))
        for g in circuit.gate_sequence()
    ]
    values = [angles[:, q] for q in range(n)] + [
        theta[..., i] for i in range(circuit.param_count)
    ]
    dense = run_gates(gates, values, n, batch)
    np.testing.assert_allclose(table, interpreted, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table, dense, rtol=0, atol=1e-12)
    for got, want in zip(grads(True), grads(False)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(), (2,)], ids=["shared", "per_batch"])
def test_gradcheck_through_the_gate_table(shape):
    """First and second derivatives through fused runs of unequal length
    with folded constants at either end: the padded whole table (shared
    angles) and the per-run blocks (per-batch angles)."""
    from repro.autodiff import check_double_grad, check_grad

    qc = (
        Circuit(2)
        .h(0).rx(0, "a").rz(0, "b")   # constant, then two rotations
        .rot(1, "c", "b", "a")        # RZ·RY·RZ
        .cnot(0, 1)
        .ry(0, "c").h(0)              # a rotation, then a constant
        .rot(1, "a", "c", "b")
    )
    plan = qc.execution_plan()
    assert [s.kind for s in plan.steps].count("fused_1q") == 4
    assert plan._table._maps.const is not None  # padding and constants

    def f(a, b, c):
        z = qc.z_expectations(params={"a": a, "b": b, "c": c}, batch=2)
        return ad.mean(z * z + z)

    rng = np.random.default_rng(5)
    inputs = [rng.uniform(-3, 3, shape) for _ in range(3)]
    check_grad(f, inputs)
    check_double_grad(f, inputs)
