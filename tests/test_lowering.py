"""Tests for ``repro.lower``'s float32 tier and the precision surfaces.

Covers the lowering contract end to end: the float32 tier's forward
stays inside the documented budgets of :mod:`repro.lower.budget` against
the float64 seed ``ExecutionPlan`` (the oracle); unknown tiers raise and
the lowered-plan cache shares one plan per circuit structure; the shared
``zero_state`` bases; the no-hidden-copy regressions for compiled epochs
and warm phase masks; and the ``QuantumLayer`` / tape ``precision``
integration surfaces (a float32 layer is inference-only).
"""

import numpy as np
import pytest

from repro import autodiff as ad
from repro import lower
from repro.autodiff import Tensor, backward, no_grad
from repro.autodiff.tape import compile_step
from repro.lower import (
    LoweredPlan,
    amplitude_budget,
    clear_lowered_cache,
    expectation_budget,
    lower_plan,
    lowered_cache_info,
    tape_budget,
)
from repro.torq import Circuit, QuantumLayer
from repro.torq import compile as torq_compile
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


class TestFloat32Budgets:
    def test_forward_within_budget(self):
        qc, params, batch = _mixed_circuit()
        n_gates = qc.execution_plan().n_gates
        with no_grad():
            seed_amps = qc.run(params=params, batch=batch,
                               compiled=True).numpy()
            seed_z = qc.z_expectations(params=params, batch=batch,
                                       compiled=True).data
        values = qc.flat_parameter_values(params)
        lowered = lower_plan(qc.gate_sequence(), qc.n_qubits)
        amps = lowered.amplitudes(batch, lambda i: values[i])
        assert amps.dtype == np.complex64
        err = float(np.max(np.abs(amps.astype(np.complex128) - seed_amps)))
        assert 0 < err <= amplitude_budget("float32", qc.n_qubits, n_gates)
        z = lowered.z_expectations(batch, lambda i: values[i])
        assert z.dtype == np.float64
        z_err = float(np.max(np.abs(z - seed_z)))
        assert z_err <= expectation_budget("float32", qc.n_qubits, n_gates)

    def test_audit_per_op_accounting(self):
        qc, params, batch = _mixed_circuit()
        gates = qc.gate_sequence()
        values = qc.flat_parameter_values(params)
        lowered = lower_plan(gates, qc.n_qubits)
        records = lower.audit_plan(lowered, values, batch=batch)
        assert [r["kind"] for r in records] == [s.kind for s in lowered.steps]
        budget = amplitude_budget("float32", qc.n_qubits,
                                  qc.execution_plan().n_gates)
        for rec in records:
            assert rec["max_abs_err"] <= budget


class TestRegistryAndCache:
    """The tier vocabulary and the lowered-plan cache."""

    def test_unknown_precision_raises(self):
        with pytest.raises(ValueError, match="precision tier"):
            QuantumLayer(n_qubits=3, n_layers=1, grad_method="adjoint",
                         precision="bfloat16")

    def test_cache_shares_one_plan_per_structure(self):
        clear_lowered_cache()
        qc, _, _ = _mixed_circuit()
        gates = qc.gate_sequence()
        lowered = lower_plan(gates, qc.n_qubits)
        assert lower_plan(gates, qc.n_qubits) is lowered
        assert lowered_cache_info()["size"] == 1
        assert lowered.plan is qc.execution_plan()


class TestOneGateTable:
    """The lowered tier runs the seed plan's steps and gate table."""

    def test_lowered_plan_wraps_the_seed_steps(self):
        qc, _, _ = _mixed_circuit()
        plan = qc.execution_plan()
        lowered = LoweredPlan(plan)
        assert lowered._table is plan._table
        assert len(lowered.steps) == len(plan.steps)
        assert all(s.seed is seed for s, seed in zip(lowered.steps, plan.steps))

    def test_forward_builds_each_rotation_once(self, monkeypatch):
        """A forward of the 12-qubit, 4-layer serving layer builds the U
        of each of its 156 rotation factors (12 embedding RX, three per
        Rot) once, and no derivative."""
        layer = QuantumLayer(n_qubits=12, n_layers=4,
                             rng=np.random.default_rng(0))
        lowered = lower_plan(layer.embedded_gate_sequence(), 12)
        values = [0.3] * 12 + [float(v) for v in layer.params.data]
        lowered.z_expectations(1, lambda i: values[i])  # warm: binds the arena
        calls = []
        rotation = torq_compile._rotation
        monkeypatch.setattr(torq_compile, "_rotation",
                            lambda *a: calls.append(a[2]) or rotation(*a))
        lowered.z_expectations(1, lambda i: values[i])
        assert len(calls) == 156


class TestZeroStateDtypeKey:
    def test_same_dtype_shares_buffers(self):
        # One float64 base per (batch, n_qubits), shared and read-only.
        a = zero_state(5, 3)
        b = zero_state(5, 3)
        assert a.tensor.re.data.dtype == np.float64
        assert a.tensor.re.data is b.tensor.re.data
        assert not a.tensor.re.data.flags.writeable


class TestNoHiddenCopies:
    def test_compiled_epoch_makes_no_contiguity_copies(self, monkeypatch):
        """Satellite regression: after warm-up, a full compiled
        forward+adjoint step on the default float64 path never calls
        ``np.ascontiguousarray`` — every factor buffer was forced
        C-contiguous at compile time (``repro.torq.compile._c_contig``),
        and the adjoint carriers start dense."""
        rng = np.random.default_rng(0)
        layer = QuantumLayer(
            n_qubits=4, n_layers=2, ansatz="basic_entangling",
            scaling="acos", rng=rng, compiled=True, grad_method="adjoint",
        )
        acts = Tensor(rng.uniform(-0.9, 0.9, (8, 4)), requires_grad=True)
        params = layer.parameters() + [acts]

        def step():
            for p in params:
                p.grad = None
            out = layer(acts)
            backward((out * out).mean(), params)

        step()  # warm-up: compiles the plan (contiguity forced here)

        calls = {"n": 0}
        original = np.ascontiguousarray

        def counting(a, *args, **kwargs):
            calls["n"] += 1
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", counting)
        step()
        assert calls["n"] == 0

    def test_warm_phase_mask_forward_never_broadcasts_shapes(
            self, monkeypatch):
        """A warm float32 forward of a CRZ mesh picks only the batch
        extent of its phase-mask scratch: ``np.broadcast_shapes`` (which
        allocates per-operand iterator state, several statevector planes
        for a large mesh) runs once, at lowering."""
        layer = QuantumLayer(n_qubits=5, n_layers=1, ansatz="cross_mesh_2rot",
                             rng=np.random.default_rng(0))
        gates = layer.embedded_gate_sequence()
        clear_lowered_cache()
        lowered = lower_plan(gates, 5)
        assert "phase_mask" in {s.kind for s in lowered.steps}
        rng = np.random.default_rng(1)
        values = [rng.uniform(0, np.pi, 4) for _ in range(5)]
        values += [float(v) for v in layer.params.data]
        lowered.z_expectations(4, lambda i: values[i])  # warm: binds the arena

        calls = {"n": 0}
        original = np.broadcast_shapes

        def counting(*args):
            calls["n"] += 1
            return original(*args)

        monkeypatch.setattr(np, "broadcast_shapes", counting)
        lowered.z_expectations(4, lambda i: values[i])
        assert calls["n"] == 0


class TestQuantumLayerPrecision:
    def test_f32_layer_is_inference_only(self):
        """A float32 layer with the default ``grad_method`` predicts
        under ``no_grad`` within the ⟨Z⟩ budget of the float64 layer,
        and refuses grad mode instead of returning a zero gradient."""
        def layer(precision):
            return QuantumLayer(n_qubits=4, n_layers=2,
                                rng=np.random.default_rng(5),
                                precision=precision)

        l64, l32 = layer("float64"), layer("float32")
        assert l32.grad_method == "backprop"
        acts = Tensor(np.random.default_rng(6).uniform(-0.9, 0.9, (6, 4)))
        with no_grad():
            z64 = l64(acts).data
            z32 = l32(acts)
        assert not z32.requires_grad
        n_gates = len(l32.embedded_gate_sequence())
        err = float(np.max(np.abs(z32.data - z64)))
        assert 0 < err <= expectation_budget("float32", 4, n_gates)
        with pytest.raises(RuntimeError, match="float32"):
            l32(acts)

    def test_repr_reports_tier(self):
        layer = QuantumLayer(n_qubits=3, n_layers=1,
                             ansatz="basic_entangling", scaling="acos",
                             rng=np.random.default_rng(0),
                             precision="float32", grad_method="adjoint")
        assert "float32" in repr(layer)


class TestTapePrecisionTier:
    def _workload(self, seed=0):
        rng = np.random.default_rng(seed)
        w1 = Tensor(rng.normal(size=(3, 8)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.normal(size=(8, 1)) * 0.5, requires_grad=True)
        params = [w1, w2]

        def fn(a):
            h = ad.tanh(Tensor(a) @ w1)
            return ((h @ w2) ** 2).mean()

        arrays = (rng.normal(size=(16, 3)),)
        return fn, params, arrays

    def test_f32_replay_within_tape_budget(self):
        fn, params, arrays = self._workload()
        step64 = compile_step(fn, params, name="tier64")
        step32 = compile_step(fn, params, name="tier32",
                              precision="float32")
        for step in (step64, step32):
            step(*arrays)
            step(*arrays)
        loss64, grads64, _ = step64(*arrays)
        grads64 = [g.copy() for g in grads64]
        loss32, grads32, _ = step32(*arrays)
        assert not step32.disabled
        recorded = (step64.cache_info().get("schedule") or {}).get(
            "recorded", 0)
        budget = tape_budget("float32", recorded)
        assert budget > 0
        err = max(
            float(np.abs(a - b).max()) / (1.0 + float(np.abs(b).max()))
            for a, b in zip(grads32, grads64)
        )
        assert 0 < err <= budget
        assert abs(loss32 - loss64) / (1.0 + abs(loss64)) <= budget
        for g in grads32:
            assert g.dtype == np.float64  # promoted at the boundary

    def test_f64_default_stays_bitwise(self):
        fn, params, arrays = self._workload(seed=1)
        step = compile_step(fn, params, name="tier64-bitwise")
        step(*arrays)
        loss_c, grads_c, _ = step(*arrays)
        grads_c = [g.copy() for g in grads_c]
        for p in params:
            p.grad = None
        out = fn(*arrays)
        backward(out, params)
        assert loss_c == float(out.data)
        for g, p in zip(grads_c, params):
            assert np.array_equal(g, p.grad)

    def test_tier_validation(self):
        fn, params, arrays = self._workload(seed=2)
        with pytest.raises(ValueError, match="precision"):
            compile_step(fn, params, precision="float16")
