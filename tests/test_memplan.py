"""Tests for in-place planned execution and the memory planner.

The contract under test:

* the liveness planner packs disjoint-interval buffers into shared arena
  slots (footprint strictly below naive per-buffer allocation);
* the planned float64 path is **bitwise** identical to the seed
  ``ExecutionPlan`` and ``torq.adjoint`` — planes, ⟨Z⟩ readout (probed
  reduction layout), and adjoint gradients;
* the planned float32 path stays inside the documented budgets against
  that float64 oracle and its warm loop performs **zero
  statevector-sized allocations** (forward + readout + adjoint, measured
  with tracemalloc);
* a plan keeps one bound execution per batch size, and a backward after
  a second forward at the same batch size still differentiates the
  first forward (the stale-arena regression), at both tiers.
"""

import tracemalloc

import numpy as np
import pytest

from repro.autodiff import Tensor, backward, no_grad
from repro.lower import (
    Arena,
    BufferSpec,
    amplitude_budget,
    gradient_budget,
    lower_plan,
    plan_buffers,
)
from repro.torq import Circuit, QuantumLayer
from repro.torq.adjoint import adjoint_state_vjp
from repro.torq.measure import pauli_z_expectations
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


def _trailing_perm_circuit(n_qubits=4, batch=5, seed=9):
    """Circuit ending on permutation -> phase steps (layout stress)."""
    rng = np.random.default_rng(seed)
    qc = Circuit(n_qubits)
    for q in range(n_qubits):
        qc.h(q)
        qc.ry(q, f"a{q}")
    for q in range(n_qubits - 1):
        qc.cnot(q, q + 1)
    qc.crz(0, n_qubits - 1, "w")
    params = {
        name: rng.uniform(-np.pi, np.pi, batch)
        for name in qc.parameter_names()
    }
    return qc, params, batch


def _seed_oracle(qc, values, batch, weights):
    """The float64 seed plan: final planes, ⟨Z⟩, and adjoint gradients."""
    plan = qc.execution_plan()
    with no_grad():
        final = plan.run(zero_state(batch, qc.n_qubits), lambda i: values[i])
    grads = adjoint_state_vjp(qc.gate_sequence(), qc.n_qubits, values,
                              weights, plan=plan, final_state=final)
    planes = (final.tensor.re.data, final.tensor.im.data)
    return planes, pauli_z_expectations(final).data, grads


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


class TestPlannedBitwiseF64:
    @pytest.mark.parametrize("make", [_mixed_circuit, _trailing_perm_circuit])
    def test_planes_z_and_adjoint_bitwise(self, make):
        qc, params, batch = make()
        values = qc.flat_parameter_values(params)
        planned = lower_plan(qc.gate_sequence(), qc.n_qubits, "float64")
        weights = np.random.default_rng(11).standard_normal(
            (batch, qc.n_qubits))
        (sre, sim), seed_z, seed_grads = _seed_oracle(
            qc, values, batch, weights)
        with no_grad():
            pp = planned.run_planes(batch, lambda i: values[i])
            assert np.array_equal(sre, pp[0])
            assert np.array_equal(sim, pp[1])
            # Readout reduction order is layout-probed: must be bitwise.
            assert np.array_equal(seed_z, planned.z_expectations(pp))
            gp = planned.adjoint_vjp(values, weights, planes=pp)
            for a, b in zip(seed_grads, gp):
                assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_repeated_runs_are_stable(self):
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        planned = lower_plan(qc.gate_sequence(), qc.n_qubits, "float64")
        with no_grad():
            first = [np.array(p, copy=True)
                     for p in planned.run_planes(batch, lambda i: values[i])]
            for _ in range(3):
                pp = planned.run_planes(batch, lambda i: values[i])
                assert np.array_equal(pp[0], first[0])
                assert np.array_equal(pp[1], first[1])

    def test_returned_planes_alias_the_arena(self):
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        planned = lower_plan(qc.gate_sequence(), qc.n_qubits, "float64")
        with no_grad():
            a = planned.run_planes(batch, lambda i: values[i])
            b = planned.run_planes(batch, lambda i: values[i])
        assert a[0] is b[0] and a[1] is b[1]


class TestPlannedFloat32:
    def test_forward_and_grads_within_budget(self):
        qc, params, batch = _mixed_circuit()
        gates = qc.gate_sequence()
        values = qc.flat_parameter_values(params)
        planned = lower_plan(gates, qc.n_qubits, "float32")
        weights = np.ones((batch, qc.n_qubits))
        po, _, go = _seed_oracle(qc, values, batch, weights)
        amp_tol = amplitude_budget("float32", qc.n_qubits, len(gates))
        grad_tol = gradient_budget("float32", qc.n_qubits, len(gates))
        with no_grad():
            pf = planned.run_planes(batch, lambda i: values[i])
            assert np.max(np.abs(pf[0].astype(np.float64) - po[0])) <= amp_tol
            assert np.max(np.abs(pf[1].astype(np.float64) - po[1])) <= amp_tol
            gp = planned.adjoint_vjp(values, weights, planes=pf)
            for a, b in zip(gp, go):
                assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= grad_tol

    def test_warm_loop_makes_no_statevector_allocations(self):
        qc, params, batch = _mixed_circuit(n_qubits=6, batch=8, seed=5)
        values = qc.flat_parameter_values(params)
        planned = lower_plan(qc.gate_sequence(), qc.n_qubits, "float32")
        weights = np.ones((batch, qc.n_qubits))
        plane_bytes = batch * 2 ** qc.n_qubits * np.dtype(np.float32).itemsize
        with no_grad():
            # Warmup binds the arena.
            pp = planned.run_planes(batch, lambda i: values[i])
            planned.z_expectations(pp)
            planned.adjoint_vjp(values, weights, planes=pp)
            tracemalloc.start()
            for _ in range(3):
                pp = planned.run_planes(batch, lambda i: values[i])
                planned.z_expectations(pp)
                planned.adjoint_vjp(values, weights, planes=pp)
            snap = tracemalloc.take_snapshot()
            tracemalloc.stop()
        big = [s for s in snap.statistics("lineno") if s.size >= plane_bytes]
        assert not big, [str(s) for s in big]

    def test_arena_is_smaller_than_naive_allocation(self):
        qc, params, batch = _mixed_circuit()
        values = qc.flat_parameter_values(params)
        planned = lower_plan(qc.gate_sequence(), qc.n_qubits, "float32")
        with no_grad():
            planned.run_planes(batch, lambda i: values[i])
        report = planned.memory_report()[batch]
        mp = report["memory_plan"]
        assert mp["total_bytes"] < mp["naive_bytes"]
        assert report["arena_bytes"] == mp["total_bytes"]
        assert report["fallback_steps"] == []


class TestPassGating:
    """What the planned executor runs in place, and how it binds."""

    def test_memplan_claims_inplace_steps(self):
        # Fused runs, phase masks and permutations run in place; only
        # unfused gate steps take the allocating fallback.
        qc = Circuit(3).h(0).rx(0, "a").cnot(0, 1).crz(1, 2, "w").ry(2, "b")
        kinds = [s["kind"] for s in qc.execution_plan().describe()]
        assert "gate" in kinds and "fused_1q" in kinds
        values = qc.flat_parameter_values(
            {"a": np.array([0.1, 0.2]), "w": 0.3, "b": np.array([0.4, 0.5])})
        for precision in ("float64", "float32"):
            plan = lower_plan(qc.gate_sequence(), 3, precision)
            with no_grad():
                plan.run_planes(2, lambda i: values[i])
            fallback = plan.memory_report()[2]["fallback_steps"]
            assert fallback == [i for i, k in enumerate(kinds) if k == "gate"]

    def test_planned_cache_is_lru_per_batch(self):
        # One bound execution per batch size served, kept for the plan's
        # lifetime: revisiting a size reuses its execution and arena.
        qc, params, _ = _mixed_circuit()
        planned = lower_plan(qc.gate_sequence(), qc.n_qubits, "float64",
                             cache=False)
        seen = {}
        with no_grad():
            for b in (2, 3, 4, 2, 3, 4, 5):
                vals = {k: np.asarray(v)[:b] for k, v in params.items()}
                flat = qc.flat_parameter_values(vals)
                planned.run_planes(b, lambda i: flat[i])
                pe = planned.planned_execution(b)
                assert seen.setdefault(b, pe) is pe
        assert set(planned.memory_report()) == {2, 3, 4, 5}


class TestStaleArena:
    """Two forwards at one batch size, then a backward for the first."""

    def _two_circuits(self):
        qc, params, batch = _mixed_circuit()
        other = {k: v[::-1] + 0.5 for k, v in params.items()}
        return (qc, qc.flat_parameter_values(params),
                qc.flat_parameter_values(other), batch)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_adjoint_vjp_differentiates_the_stamped_forward(self, precision):
        qc, first, second, batch = self._two_circuits()
        gates = qc.gate_sequence()
        weights = np.random.default_rng(3).standard_normal(
            (batch, qc.n_qubits))
        lowered = lower_plan(gates, qc.n_qubits, precision)
        fresh = lowered.adjoint_vjp(first, weights)
        with no_grad():
            planes = lowered.run_planes(batch, lambda i: first[i])
            lowered.run_planes(batch, lambda i: second[i])
        stale = lowered.adjoint_vjp(first, weights, planes=planes)
        for a, b in zip(fresh, stale):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        oracle = adjoint_state_vjp(gates, qc.n_qubits, first, weights)
        tol = gradient_budget(precision, qc.n_qubits, len(gates))
        for a, b in zip(oracle, stale):
            err = np.max(np.abs(np.asarray(a) - np.asarray(b)))
            assert err <= tol  # 0.0 at float64: bitwise
        with pytest.raises(ValueError, match="latest forward"):
            lowered.z_expectations(planes)

    def test_quantum_layer_two_forwards_one_backward(self):
        def grads(twice):
            layer = QuantumLayer(
                n_qubits=4, n_layers=2, rng=np.random.default_rng(0),
                grad_method="adjoint", precision="float32")
            x1 = Tensor(np.random.default_rng(1).uniform(-0.9, 0.9, (8, 4)),
                        requires_grad=True)
            out = layer(x1)
            if twice:
                layer(Tensor(np.random.default_rng(2).uniform(
                    -0.9, 0.9, (8, 4))))
            backward((out * out).sum(), [layer.params, x1])
            return layer.params.grad, x1.grad

        once, twice = grads(False), grads(True)
        assert np.array_equal(once[0], twice[0])
        assert np.array_equal(once[1], twice[1])
