"""Tests for in-place planned execution and the memory planner.

The contract under test:

* the liveness planner packs disjoint-interval buffers into shared arena
  slots (footprint strictly below naive per-buffer allocation);
* the planned float32 path stays inside the documented budgets against
  the float64 seed ``ExecutionPlan``, and its warm loop performs **zero
  statevector-sized allocations**, transient or live (forward + readout,
  measured with tracemalloc's peak);
* every lowered step runs in the arena: a lone gate the seed plan keeps
  unfused lowers to the fused, phase-mask or permutation step of its
  kind;
* a plan keeps one bound execution per batch size, and its arena holds
  only what the forward and the readout need.
"""

import tracemalloc

import numpy as np
import pytest

from repro.autodiff import no_grad
from repro.lower import (
    Arena,
    BufferSpec,
    amplitude_budget,
    clear_lowered_cache,
    lower_plan,
    plan_buffers,
)
from repro.torq import ANSATZ_NAMES, Circuit, QuantumLayer
from repro.torq.reference import run_circuit
from repro.torq.state import zero_state


def _mixed_circuit(n_qubits=4, batch=6, seed=3):
    """Deterministic circuit hitting every step kind (fused/perm/phase)."""
    rng = np.random.default_rng(seed)
    qc = Circuit(n_qubits)
    for q in range(n_qubits):
        qc.h(q)
        qc.rx(q, f"a{q}")
    qc.rot(1, "r0", "r1", "r2")
    for q in range(n_qubits):
        qc.cnot(q, (q + 1) % n_qubits)
    qc.crz(0, 2, "w")
    for q in range(n_qubits):
        qc.rz(q, f"z{q}")
    params = {
        name: rng.uniform(-np.pi, np.pi, batch)
        for name in qc.parameter_names()
    }
    return qc, params, batch


def _mixed_case(n_qubits, batch):
    """``(gates, n_qubits, flat values, batch)`` of the mixed circuit."""
    qc, params, batch = _mixed_circuit(n_qubits=n_qubits, batch=batch, seed=5)
    return (qc.gate_sequence(), n_qubits, qc.flat_parameter_values(params),
            batch)


def _cross_mesh_case(n_qubits, batch):
    """The embedded ``cross_mesh`` layer — a CRZ mesh per layer, and RX
    gates the seed plan keeps as lone ``gate`` steps — with per-batch
    embedding angles and shared ansatz parameters."""
    rng = np.random.default_rng(5)
    layer = QuantumLayer(n_qubits=n_qubits, n_layers=2, ansatz="cross_mesh",
                         rng=rng)
    values = [rng.uniform(0, np.pi, batch) for _ in range(n_qubits)]
    values += [float(v) for v in layer.params.data]
    return layer.embedded_gate_sequence(), n_qubits, values, batch


def _seed_amplitudes(qc, values, batch):
    """The float64 seed plan's final state, ``(batch, 2**n)``."""
    with no_grad():
        final = qc.execution_plan().run(
            zero_state(batch, qc.n_qubits), lambda i: values[i])
    return final.numpy()


class TestBufferPlanner:
    def test_disjoint_intervals_share_a_slot(self):
        specs = [
            BufferSpec("a", 64, 0, 1),
            BufferSpec("b", 48, 2, 3),
            BufferSpec("c", 64, 2, 4),
        ]
        plan = plan_buffers(specs)
        # "a" dies before "b"/"c" start; one of them reuses its slot.
        assert len(plan.slots) == 2
        assert plan.total_bytes < plan.naive_bytes
        assert plan.slot_of("a") in (plan.slot_of("b"), plan.slot_of("c"))

    def test_overlapping_intervals_get_distinct_slots(self):
        specs = [BufferSpec("a", 8, 0, 5), BufferSpec("b", 8, 3, 6)]
        plan = plan_buffers(specs)
        assert plan.slot_of("a") != plan.slot_of("b")

    def test_slot_capacity_is_max_of_assigned(self):
        specs = [BufferSpec("big", 100, 0, 0), BufferSpec("small", 10, 1, 1)]
        plan = plan_buffers(specs)
        assert plan.slots == [100]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            plan_buffers([BufferSpec("x", 8, 0, 0), BufferSpec("x", 8, 1, 1)])

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            BufferSpec("x", 8, first=3, last=1)
        with pytest.raises(ValueError):
            BufferSpec("x", -1, 0, 0)

    def test_arena_view_validates_size(self):
        plan = plan_buffers([BufferSpec("x", 32, 0, 0)])
        arena = Arena(plan)
        v = arena.view("x", (4,), np.float64)
        assert v.nbytes == 32 and v.flags.c_contiguous
        with pytest.raises(ValueError, match="bytes"):
            arena.view("x", (5,), np.float64)

    def test_arena_strided_view_rejects_negative_strides(self):
        plan = plan_buffers([BufferSpec("x", 64, 0, 0)])
        arena = Arena(plan)
        with pytest.raises(ValueError, match="negative"):
            arena.strided_view("x", (4,), np.float64, (-8,))


class TestPlannedFloat32:
    def test_forward_and_grads_within_budget(self):
        qc, params, batch = _mixed_circuit()
        gates = qc.gate_sequence()
        values = qc.flat_parameter_values(params)
        planned = lower_plan(gates, qc.n_qubits)
        seed = _seed_amplitudes(qc, values, batch)
        amp_tol = amplitude_budget("float32", qc.n_qubits, len(gates))
        amps = planned.amplitudes(batch, lambda i: values[i])
        for got, want in ((amps.real, seed.real), (amps.imag, seed.imag)):
            assert np.max(np.abs(got.astype(np.float64) - want)) <= amp_tol

    @pytest.mark.parametrize("case", [_mixed_case, _cross_mesh_case],
                             ids=["mixed", "cross_mesh"])
    def test_warm_loop_makes_no_statevector_allocations(self, case):
        # 12 qubits x batch 16: one float32 plane (256 KiB) dwarfs Python
        # bookkeeping and NumPy's fixed-size ufunc buffers (at most 8,192
        # elements per broadcast operand), so the traced peak of a warm
        # step sees any transient statevector-sized array.
        gates, n_qubits, values, batch = case(12, 16)
        clear_lowered_cache()
        planned = lower_plan(gates, n_qubits)
        plane_bytes = batch * 2 ** n_qubits * np.dtype(np.float32).itemsize
        peaks = []
        # Warmup binds the arena.
        planned.z_expectations(batch, lambda i: values[i])
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                planned.z_expectations(batch, lambda i: values[i])
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert max(peaks) < plane_bytes, (peaks, plane_bytes)

    def test_arena_is_smaller_than_naive_allocation(self):
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        planned = lower_plan(qc.gate_sequence(), qc.n_qubits)
        planned.z_expectations(batch, lambda i: values[i])
        report = planned.memory_report()[batch]
        mp = report["memory_plan"]
        assert mp["total_bytes"] < mp["naive_bytes"]
        assert report["arena_bytes"] == mp["total_bytes"]

    def test_repeated_runs_are_stable(self):
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        planned = lower_plan(qc.gate_sequence(), qc.n_qubits)
        first = planned.amplitudes(batch, lambda i: values[i])
        for _ in range(3):
            assert np.array_equal(
                planned.amplitudes(batch, lambda i: values[i]), first)

    def test_ansatz_arenas_hold_at_most_15_planes(self):
        # One plane is batch · 2ⁿ float32 values.  A forward-only arena
        # holds two ping-pong plane pairs plus the scratch of one step:
        # 8–15 planes over these circuits.
        n_qubits, batch = 8, 32
        plane = batch * 2 ** n_qubits * np.dtype(np.float32).itemsize
        for name in ANSATZ_NAMES:
            layer = QuantumLayer(n_qubits=n_qubits, n_layers=4, ansatz=name,
                                 rng=np.random.default_rng(0))
            lowered = lower_plan(layer.embedded_gate_sequence(), n_qubits)
            arena = lowered.planned_execution(batch).arena.total_bytes
            assert arena <= 15 * plane, (name, arena / plane)


class TestPassGating:
    """What the planned executor runs in place, and how it binds."""

    def test_memplan_claims_inplace_steps(self):
        # Every gate of this circuit is alone in its step: the seed plan
        # compiles each to the one-gate step of its kind, the lowered plan
        # wraps those steps one to one, and it matches the dense oracle
        # within the float32 budgets.
        qc = (Circuit(3).h(0).cnot(0, 1).y(1).cnot(1, 2).z(2).cnot(2, 0)
              .rz(0, "a").cnot(0, 1).rx(1, "b").crz(1, 2, "w").x(2)
              .crz(2, 0, "v").ry(0, "c"))
        seed = qc.execution_plan().describe()
        kind_of = {"cnot": "permutation", "crz": "phase_mask"}
        assert [(s["kind"], s["gates"]) for s in seed] == [
            (kind_of.get(g.name, "fused_1q"), [g.name])
            for g in qc.gate_sequence()
        ]
        plan = lower_plan(qc.gate_sequence(), 3)
        assert [(s.kind, list(s.gates)) for s in plan.steps] == [
            (s["kind"], s["gates"]) for s in seed
        ]
        params = {"a": np.array([0.1, 0.2]), "b": 0.7, "w": 0.3,
                  "v": np.array([-1.2, 2.5]), "c": np.array([0.4, 0.5])}
        values = qc.flat_parameter_values(params)
        n_gates = len(qc.gate_sequence())
        amps = plan.amplitudes(2, lambda i: values[i]).astype(np.complex128)
        dense = run_circuit(qc, params=params, batch=2)
        assert np.max(np.abs(amps - dense)) <= amplitude_budget(
            "float32", 3, n_gates)
        assert set(plan.memory_report()[2]) == {
            "batch", "memory_plan", "arena_bytes"}

    def test_planned_cache_is_lru_per_batch(self):
        # One bound execution per batch size served, kept for the plan's
        # lifetime: revisiting a size reuses its execution and arena.
        qc, params, _ = _mixed_circuit()
        clear_lowered_cache()
        planned = lower_plan(qc.gate_sequence(), qc.n_qubits)
        seen = {}
        for b in (2, 3, 4, 2, 3, 4, 5):
            vals = {k: np.asarray(v)[:b] for k, v in params.items()}
            flat = qc.flat_parameter_values(vals)
            planned.z_expectations(b, lambda i: flat[i])
            pe = planned.planned_execution(b)
            assert seen.setdefault(b, pe) is pe
        assert set(planned.memory_report()) == {2, 3, 4, 5}

