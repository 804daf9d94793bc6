"""Tests for the TorQ circuit compiler (``repro.torq.compile``).

Covers: fusion structure per ansatz, compiled-vs-interpreted equivalence,
plan caching and invalidation, late-bound (batched) parameters, observability
(zero overhead when profiling is off, full attribution when it is on), and
the serial/batched parameter-shift gradient paths.
"""

import numpy as np
import pytest

from repro import autodiff as ad
from repro import obs
from repro.autodiff import Tensor, no_grad
from repro.torq import (
    ANSATZ_NAMES,
    Circuit,
    batched_parameter_shift_grad,
    clear_plan_cache,
    compile_gates,
    make_ansatz,
    make_batched_ansatz_forward,
    parameter_shift_grad,
    plan_cache_info,
    run_gates,
    rx_product_state,
)
from repro.torq.ansatz import GateSpec, _apply_gate, apply_ansatz
from repro.torq.measure import pauli_z_expectations
from repro.torq.state import zero_state


# ----------------------------------------------------------------------
# Fusion structure
# ----------------------------------------------------------------------

def test_crz_mesh_fuses_to_single_phase_mask():
    """The cross-mesh entangler (42 CRZs at 7 qubits) is ONE kernel."""
    plan = make_ansatz("cross_mesh", n_qubits=7, n_layers=1).execution_plan()
    masks = [s for s in plan.describe() if s["kind"] == "phase_mask"]
    assert len(masks) == 1
    assert len(masks[0]["gates"]) == 42
    assert plan.n_gates == 49  # 7 rx + 42 crz
    assert plan.num_steps == 8  # 7 lone rx + 1 mask
    assert plan.fused_gates == 41


def test_cnot_chain_fuses_to_single_permutation():
    plan = make_ansatz("basic_entangling", n_qubits=5, n_layers=1).execution_plan()
    perms = [s for s in plan.describe() if s["kind"] == "permutation"]
    assert len(perms) == 1 and len(perms[0]["gates"]) == 5


def test_same_qubit_rotations_fuse_across_layers():
    """no_entanglement stacks each qubit's per-layer Rots into one 2x2."""
    plan = make_ansatz("no_entanglement", n_qubits=4, n_layers=3).execution_plan()
    assert plan.n_gates == 12
    assert plan.num_steps == 4  # one fused step per qubit
    assert all(s["kind"] == "fused_1q" for s in plan.describe())


def test_constant_gates_fold_at_compile_time():
    gates = (GateSpec("h", (0,)), GateSpec("z", (0,)), GateSpec("h", (0,)))
    plan = compile_gates(gates, 1, cache=False)
    assert plan.num_steps == 1
    # HZH = X
    state = plan.run(zero_state(1, 1), lambda i: None)
    np.testing.assert_allclose(state.numpy(), [[0.0, 1.0]], atol=1e-12)


def test_commutation_is_blocked_by_overlapping_support():
    # rz(0) cannot fuse with rz(1)'s group past the cnot touching qubit 0
    gates = (
        GateSpec("rz", (0,), (0,)),
        GateSpec("cnot", (0, 1)),
        GateSpec("rz", (0,), (1,)),
    )
    plan = compile_gates(gates, 2, cache=False)
    assert plan.num_steps == 3  # nothing may fuse


def test_commutation_past_disjoint_qubits():
    # x(1) slides past rz(0) to join x-run on qubit 1? support-disjoint
    gates = (
        GateSpec("x", (1,)),
        GateSpec("rz", (0,), (0,)),
        GateSpec("x", (1,)),
    )
    plan = compile_gates(gates, 2, cache=False)
    kinds = [s.kind for s in plan.steps]
    assert plan.num_steps == 2  # two x's fused into one permutation


#: The kernel step each gate compiles to when no run absorbs it.
LONE_GATE_KINDS = {
    "h": "fused_1q", "x": "fused_1q", "y": "fused_1q", "z": "fused_1q",
    "rx": "fused_1q", "ry": "fused_1q", "rz": "fused_1q", "rot": "fused_1q",
    "crz": "phase_mask", "cnot": "permutation",
}


@pytest.mark.parametrize("name", sorted(LONE_GATE_KINDS))
def test_lone_gate_compiles_to_its_kernel_step(name):
    n_params = {"rot": 3, "rx": 1, "ry": 1, "rz": 1, "crz": 1}.get(name, 0)
    qubits = (1, 0) if name in ("cnot", "crz") else (1,)
    gate = GateSpec(name, qubits, tuple(range(n_params)))
    plan = compile_gates((gate,), 2, cache=False)
    assert [(s.kind, s.gates) for s in plan.steps] == [
        (LONE_GATE_KINDS[name], (name,))]
    values = np.random.default_rng(len(name)).uniform(-3, 3, (n_params, 3))
    state = rx_product_state(Tensor(np.array([[0.4, 1.1], [2.0, -0.7],
                                              [0.1, 2.9]])))
    with no_grad():
        got = plan.run(state, lambda i: Tensor(values[i])).numpy()
        want = _apply_gate(state, gate, lambda i: Tensor(values[i])).numpy()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# Equivalence: compiled vs interpreted on all six paper ansätze
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ANSATZ_NAMES)
def test_compiled_matches_interpreted(name):
    ansatz = make_ansatz(name, n_qubits=4, n_layers=2)
    rng = np.random.default_rng(7)
    params = Tensor(rng.uniform(0, 2 * np.pi, ansatz.param_count))
    with no_grad():
        a = apply_ansatz(zero_state(3, 4), ansatz, params, compiled=True)
        b = apply_ansatz(zero_state(3, 4), ansatz, params, compiled=False)
    np.testing.assert_allclose(a.numpy(), b.numpy(), atol=1e-10, rtol=0)


@pytest.mark.parametrize("name", ANSATZ_NAMES)
def test_compiled_gradients_match_interpreted(name):
    ansatz = make_ansatz(name, n_qubits=3, n_layers=1)
    rng = np.random.default_rng(11)
    values = rng.uniform(0, 2 * np.pi, ansatz.param_count)
    grads = []
    for compiled in (True, False):
        t = Tensor(values.copy(), requires_grad=True)
        state = apply_ansatz(zero_state(1, 3), ansatz, t, compiled=compiled)
        (g,) = ad.grad(ad.mean(pauli_z_expectations(state)), [t])
        grads.append(g.data)
    np.testing.assert_allclose(grads[0], grads[1], atol=1e-10, rtol=0)


def test_compiled_matches_dense_reference_via_run_gates():
    ansatz = make_ansatz("cross_mesh_2rot", n_qubits=3, n_layers=2)
    rng = np.random.default_rng(3)
    params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
    with no_grad():
        fast = apply_ansatz(
            zero_state(1, 3), ansatz, Tensor(params), compiled=True
        ).numpy()
    dense = run_gates(ansatz.gate_sequence(), params, 3, batch=1)
    np.testing.assert_allclose(fast, dense, atol=1e-10, rtol=0)


def test_batched_per_parameter_rows_match_loop():
    """(batch, P) parameters execute every row like a separate 1-D run."""
    ansatz = make_ansatz("strongly_entangling", n_qubits=3, n_layers=2)
    rng = np.random.default_rng(5)
    rows = rng.uniform(0, 2 * np.pi, (4, ansatz.param_count))
    with no_grad():
        batched = apply_ansatz(
            zero_state(4, 3), ansatz, Tensor(rows), compiled=True
        ).numpy()
        for k in range(4):
            single = apply_ansatz(
                zero_state(1, 3), ansatz, Tensor(rows[k]), compiled=True
            ).numpy()
            np.testing.assert_allclose(batched[k], single[0], atol=1e-10, rtol=0)


# ----------------------------------------------------------------------
# Plan caching
# ----------------------------------------------------------------------

def test_plan_cache_hits_on_same_structure():
    clear_plan_cache()
    a = make_ansatz("basic_entangling", n_qubits=3, n_layers=2)
    b = make_ansatz("basic_entangling", n_qubits=3, n_layers=2)
    assert a.execution_plan() is b.execution_plan()
    info = plan_cache_info()
    assert info["misses"] == 1 and info["hits"] == 1
    clear_plan_cache()
    info = plan_cache_info()
    assert info["size"] == 0
    assert info["hits"] == info["misses"] == info["evictions"] == 0
    assert info["capacity"] > 0


def test_circuit_plan_invalidated_on_append():
    qc = Circuit(2).h(0).rx(0, "a")
    first = qc.execution_plan()
    assert qc.execution_plan() is first  # cached
    qc.cnot(0, 1)
    second = qc.execution_plan()
    assert second is not first
    assert second.n_gates == 3


def test_circuit_parameter_names_cached_and_invalidated():
    qc = Circuit(2).rx(0, "a").ry(1, "b").rz(0, "a")
    names = qc.parameter_names()
    assert names == ("a", "b")
    assert qc.parameter_names() is names  # same cached tuple
    qc.crz(0, 1, "c")
    assert qc.parameter_names() == ("a", "b", "c")


def test_circuit_gate_sequence_flat_indices():
    qc = Circuit(2).rx(0, "a").rz(1, 0.5).rot(0, "b", "a", 1.5)
    seq = qc.gate_sequence()
    assert [g.name for g in seq] == ["rx", "rz", "rot"]
    assert seq[0].params == (0,)          # "a"
    assert seq[1].params == (2,)          # literal 0.5 -> first literal slot
    assert seq[2].params == (1, 0, 3)     # "b", shared "a", literal 1.5
    values = qc.flat_parameter_values({"a": 0.1, "b": 0.2})
    assert values == [0.1, 0.2, 0.5, 1.5]


# ----------------------------------------------------------------------
# Observability: zero overhead off, full attribution on
# ----------------------------------------------------------------------

def test_no_metrics_emitted_when_profiling_disabled():
    reg = obs.metrics()
    reg.reset()
    qc = Circuit(3).h(0).rx(0, "t").cnot(0, 1).crz(1, 2, "t")
    with no_grad():
        qc.run(params={"t": 0.4}, batch=2)
    assert reg.snapshot() == []


def test_profile_attributes_ops_inside_compiled_plan():
    ansatz = make_ansatz("cross_mesh", n_qubits=3, n_layers=1)
    params = Tensor(np.linspace(0.1, 1.0, ansatz.param_count))
    reg = obs.metrics()
    reg.reset()
    with no_grad():
        apply_ansatz(zero_state(2, 3), ansatz, params)  # warm the plan
        with obs.profile():
            apply_ansatz(zero_state(2, 3), ansatz, params)
    snap = reg.snapshot()
    reg.reset()
    timers = {e["name"] for e in snap if e["kind"] == "timer"}
    # plan-level attribution ...
    assert "torq.apply" in timers
    counters = {e["name"] for e in snap if e["kind"] == "counter"}
    assert {"torq.plan.replay", "torq.plan.steps", "torq.gates"} <= counters
    # ... and op-level attribution inside fused steps (call-time binding):
    op_timers = {
        e["labels"].get("op") for e in snap if e["name"] == "autodiff.op"
    }
    assert op_timers  # profiler shims saw the ops the plan executed


def test_profiled_plan_runs_the_same_steps_bitwise():
    """Observing a run does not change it: a QuantumLayer forward and a
    second-order gradient are bitwise equal with and without
    ``obs.profile()``, which still counts every step by kind."""
    from repro.torq.layer import QuantumLayer

    layer = QuantumLayer(n_qubits=5, n_layers=2, rng=np.random.default_rng(0))
    acts = np.random.default_rng(1).uniform(-0.9, 0.9, (6, 5))

    def run():
        a = Tensor(acts, requires_grad=True)
        z = layer(a)
        (da,) = ad.grad(z.sum(), [a], create_graph=True)
        dd = ad.grad((da * da).sum(), [a, layer.params])
        return [z.data, da.data] + [g.data for g in dd]

    plain = run()
    reg = obs.metrics()
    reg.reset()
    with obs.profile():
        observed = run()
    snap = reg.snapshot()
    reg.reset()
    for got, want in zip(observed, plain):
        assert got.tobytes() == want.tobytes()
    steps = {
        e["labels"]["kind"]: e["value"] for e in snap
        if e["kind"] == "counter" and e["name"] == "torq.plan.steps"
    }
    kinds = [s.kind for s in layer.ansatz.execution_plan().steps]
    assert steps == {k: kinds.count(k) for k in set(kinds)}


def test_plan_cache_counters_under_profile():
    clear_plan_cache()
    gates = (GateSpec("rx", (0,), (0,)), GateSpec("cnot", (0, 1)))
    reg = obs.metrics()
    reg.reset()
    with obs.profile():
        compile_gates(gates, 2)
        compile_gates(gates, 2)
    hits = [
        e for e in reg.snapshot()
        if e["kind"] == "counter" and e["name"] == "torq.plan.cache"
        and e["labels"].get("outcome") == "hit"
    ]
    assert hits and hits[0]["value"] == 1
    reg.reset()
    clear_plan_cache()


# ----------------------------------------------------------------------
# Parameter-shift gradients: array-valued forwards, serial and batched
# ----------------------------------------------------------------------

def test_parameter_shift_accepts_array_valued_forward():
    """Satellite fix: forwards returning arrays (per-qubit expectations)
    produce a gradient with the matching trailing shape."""
    ansatz = make_ansatz("basic_entangling", n_qubits=2, n_layers=1)
    rng = np.random.default_rng(0)
    params = rng.uniform(0, 2 * np.pi, ansatz.param_count)

    def forward(p):
        with no_grad():
            state = apply_ansatz(zero_state(1, 2), ansatz, Tensor(p))
            return pauli_z_expectations(state).data[0]  # shape (2,)

    grad = parameter_shift_grad(forward, params, ansatz)
    assert grad.shape == (ansatz.param_count, 2)
    # rows reduce to the scalar-forward gradient of each component's mean
    scalar = parameter_shift_grad(
        lambda p: forward(p).mean(), params, ansatz
    )
    np.testing.assert_allclose(grad.mean(axis=1), scalar, atol=1e-12, rtol=0)


@pytest.mark.parametrize("name", ["cross_mesh", "strongly_entangling"])
def test_batched_shift_matches_serial_and_autodiff(name):
    ansatz = make_ansatz(name, n_qubits=3, n_layers=2)
    rng = np.random.default_rng(9)
    params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
    forward = make_batched_ansatz_forward(ansatz)
    serial = parameter_shift_grad(forward, params, ansatz)
    batched = batched_parameter_shift_grad(forward, params, ansatz)
    np.testing.assert_allclose(batched, serial, atol=1e-10, rtol=0)
    t = Tensor(params, requires_grad=True)
    state = apply_ansatz(zero_state(1, 3), ansatz, t)
    (g,) = ad.grad(ad.mean(pauli_z_expectations(state)), [t])
    np.testing.assert_allclose(batched, g.data, atol=1e-9, rtol=0)


def test_batched_shift_array_valued_forward():
    """Batched shift with per-qubit (vector) outputs keeps trailing shape."""
    ansatz = make_ansatz("basic_entangling", n_qubits=2, n_layers=1)
    rng = np.random.default_rng(4)
    params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
    forward = make_batched_ansatz_forward(
        ansatz, observable=lambda s: pauli_z_expectations(s).data
    )
    grad = batched_parameter_shift_grad(forward, params, ansatz)
    assert grad.shape == (ansatz.param_count, 2)
    serial = parameter_shift_grad(forward, params, ansatz)
    np.testing.assert_allclose(grad, serial, atol=1e-10, rtol=0)
