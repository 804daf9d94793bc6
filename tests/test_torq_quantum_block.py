"""The QuantumLayer backprop kernels: product-state RX embedding, the
one-square ⟨Z⟩ readout, the row GEMM of short-stride fused runs and the
transfer matrix.

Each kernel replaces a slower form that stays in the library as its
oracle: ``angle_embedding(zero_state(...))`` for the product state,
per-qubit :func:`marginal_probability` for the readout, the broadcast
block product for the row GEMM, and the gate-by-gate plan on every row
for the transfer matrix.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import Tensor, check_double_grad, check_grad, grad
from repro.autodiff.tape import compile_step
from repro.nn import Linear
from repro.optim import Adam
from repro.torq import (
    ANSATZ_NAMES,
    QuantumLayer,
    angle_embedding,
    apply_ansatz,
    make_ansatz,
    marginal_probability,
    pauli_z_expectations,
    rx_product_state,
    scale_input,
    zero_state,
)
from repro.torq import compile as torq_compile
from repro.torq import layer as torq_layer
from repro.torq.ansatz import GateSpec
from repro.torq.complexnum import ComplexTensor
from repro.torq.reference import NaiveSimulator
from repro.torq.shift import batched_state_shift_vjp


def _assert_states_equal(a, b):
    np.testing.assert_array_equal(a.tensor.re.data, b.tensor.re.data)
    np.testing.assert_array_equal(a.tensor.im.data, b.tensor.im.data)


class TestProductStateEmbedding:
    @pytest.mark.parametrize("n_qubits", range(1, 9))
    @pytest.mark.parametrize("batch", [1, 7, 512])
    def test_bitwise_equal_to_gate_by_gate_embedding(self, n_qubits, batch):
        rng = np.random.default_rng(100 * n_qubits + batch)
        angles = rng.uniform(0.0, np.pi, (batch, n_qubits))
        # The acos clip edges: exact zeros and cos(π/2) ≠ 0 amplitudes.
        angles[::3] = rng.choice([0.0, np.pi], angles[::3].shape)
        oracle = angle_embedding(zero_state(batch, n_qubits), Tensor(angles))
        state = rx_product_state(Tensor(angles))
        _assert_states_equal(state, oracle)
        np.testing.assert_array_equal(
            pauli_z_expectations(state).data,
            pauli_z_expectations(oracle).data,
        )

    def test_angles_outside_the_scaling_ranges(self, rng):
        angles = rng.uniform(-7.0, 7.0, (9, 4))
        _assert_states_equal(
            rx_product_state(Tensor(angles)),
            angle_embedding(zero_state(9, 4), Tensor(angles)),
        )

    def test_parameter_gradients_bitwise_through_the_ansatz(self, rng):
        ansatz = make_ansatz("strongly_entangling", n_qubits=4, n_layers=2)
        params = Tensor(rng.uniform(0, 2 * np.pi, ansatz.param_count),
                        requires_grad=True)
        angles = Tensor(rng.uniform(0.1, 3.0, (16, 4)))

        def param_grad(state):
            z = pauli_z_expectations(apply_ansatz(state, ansatz, params))
            (g,) = grad((z * z).sum(), [params])
            return g.data

        np.testing.assert_array_equal(
            param_grad(rx_product_state(angles)),
            param_grad(angle_embedding(zero_state(16, 4), angles)),
        )

    def test_rejects_non_matrix_angles(self):
        with pytest.raises(ValueError):
            rx_product_state(Tensor(np.zeros(3)))


class TestOneSquareReadout:
    @pytest.mark.parametrize("n_qubits", [1, 3, 7])
    def test_matches_per_qubit_marginals_bitwise(self, rng, n_qubits):
        shape = (11,) + (2,) * n_qubits
        state = rx_product_state(Tensor(rng.uniform(0, np.pi, (11, n_qubits))))
        state = type(state)(
            ComplexTensor(
                state.tensor.re + Tensor(rng.normal(size=shape)),
                state.tensor.im,
            ),
            n_qubits,
        )
        z = pauli_z_expectations(state).data
        for q in range(n_qubits):
            marg = marginal_probability(state, q).data
            np.testing.assert_array_equal(z[:, q], marg[:, 0] - marg[:, 1])


def _fused_rot(n_qubits, qubit):
    """A lone Rot step reading the canonical packed order, and the block
    its one-step gate table builds from a resolver."""
    step = torq_compile._FusedSingleQubitStep(
        [GateSpec("rot", (qubit,), (0, 1, 2))], qubit, n_qubits
    )
    step.bind(tuple(range(n_qubits + 2)), None)
    table = torq_compile._GateTable((step,))
    return step, lambda resolve: next(table.operands(resolve))


class TestRowGemm:
    def test_predicate_is_batch_independent_short_stride(self):
        assert torq_compile._row_gemm(np.eye(4), 1)
        assert torq_compile._row_gemm(np.eye(4), 4)
        assert not torq_compile._row_gemm(np.eye(4), 8)
        assert not torq_compile._row_gemm(np.zeros((5, 1, 4, 4)), 1)

    @pytest.mark.parametrize("batch", [1, 7, 512])
    def test_forward_against_the_broadcast_product(self, rng, monkeypatch,
                                                   batch):
        """Bitwise at post 2 and 4; post 1 (GEMV per row before) may move
        the last bit of a 4-term dot product."""
        n = 3
        shape = (batch,) + (2,) * n
        state = ComplexTensor(Tensor(rng.normal(size=shape)),
                              Tensor(rng.normal(size=shape)))
        angles = [Tensor(v) for v in rng.uniform(-3, 3, 3)]
        packed = torq_compile._pack(state)
        for qubit in range(n):
            step, block = _fused_rot(n, qubit)
            unpack = torq_compile._Unpack(step.order)
            rows = unpack(step(packed, block(lambda i: angles[i])))
            with monkeypatch.context() as mp:
                mp.setattr(torq_compile, "_row_gemm", lambda m, post: False)
                bcast = unpack(step(packed, block(lambda i: angles[i])))
            post = 2 ** (n - 1 - qubit)
            for got, want in ((rows.re, bcast.re), (rows.im, bcast.im)):
                if post == 1:
                    np.testing.assert_allclose(got.data, want.data,
                                               rtol=0, atol=1e-14)
                else:
                    np.testing.assert_array_equal(got.data, want.data)

    def test_second_order_gradcheck_at_post_1_2_4(self, rng):
        """d²/dθ² and d²/da² through Rot steps on qubits 0–2 of 3
        (post 4, 2, 1), all on the row GEMM."""
        ansatz = make_ansatz("strongly_entangling", n_qubits=3, n_layers=1)
        plan = torq_compile.compile_gates(ansatz.gate_sequence(), 3)
        posts = sorted(s._post for s in plan.steps if s.kind == "fused_1q")
        assert posts == [1, 2, 4]

        def f(angles, params):
            state = rx_product_state(angles)
            z = pauli_z_expectations(apply_ansatz(state, ansatz, params))
            return ad.mean(z * z * ad.sin(angles))

        inputs = [rng.uniform(0.2, 2.9, (2, 3)),
                  rng.uniform(0, 2 * np.pi, ansatz.param_count)]
        check_grad(f, inputs)
        check_double_grad(f, inputs)


class TestCompiledQuantumStep:
    def test_pinn_style_step_replays_bitwise(self, rng):
        """A residual (create_graph) step through QuantumLayer(scaling="pi")
        compiles — no clip — and replays bitwise equal to define-by-run."""
        trunk = Linear(2, 4, rng=rng)
        head = Linear(4, 1, rng=rng)
        quantum = QuantumLayer(n_qubits=4, n_layers=2, scaling="pi", rng=rng)
        params = trunk.parameters() + quantum.parameters() + head.parameters()

        def fn(pts):
            x = Tensor(pts[:, :1], requires_grad=True)
            t = Tensor(pts[:, 1:], requires_grad=True)
            u = head(quantum(ad.tanh(trunk(ad.concatenate([x, t], axis=1)))))
            u_x, u_t = grad(u.sum(), [x, t], create_graph=True)
            res = u_t + u_x * u
            return (res * res).mean()

        pts = rng.uniform(-1, 1, (16, 2))
        step = compile_step(fn, params)
        for p in params:
            p.grad = None
        loss = fn(pts)
        ad.backward(loss, params)
        ref_loss = float(loss.data)
        ref_grads = [p.grad.copy() for p in params]
        for _ in range(3):
            got_loss, grads, _ = step(pts)
            assert got_loss == ref_loss
            for g, rg in zip(grads, ref_grads):
                np.testing.assert_array_equal(g, rg)
        assert not step.disabled

    def test_paper_qpinn_step_replays_bitwise(self):
        """The paper QPINN's fixed-grid loss (``scaling="pi"``: no clip)
        compiles through the transfer matrix and replays bitwise."""
        from repro.core.config import get_case
        from repro.core.models import MaxwellQPINN

        case = get_case("vacuum")
        model = MaxwellQPINN(scaling="pi", rng=np.random.default_rng(0),
                             t_max=case.t_max)
        assert model.quantum.uses_transfer_matrix
        loss_fn = case.make_loss(use_energy=True, curriculum=None)
        grid = case.make_grid(3)
        params = model.parameters()

        def fn():
            return loss_fn.loss_tensors(model, grid)

        for p in params:
            p.grad = None
        loss, _ = fn()
        ad.backward(loss, params)
        ref_loss = float(loss.data)
        ref_grads = [p.grad.copy() for p in params]
        step = compile_step(fn, params)
        for _ in range(3):
            got_loss, grads, _ = step()
            assert got_loss == ref_loss
            for g, rg in zip(grads, ref_grads):
                np.testing.assert_array_equal(g, rg)
        assert step.disabled is None


def _gate_by_gate(layer, acts, compiled=True):
    """The layer's final state with the ansatz run on every row: the
    compiled plan, or the interpreted per-gate path."""
    state = rx_product_state(scale_input(layer.scaling, acts))
    return apply_ansatz(state, layer.ansatz, layer.params, compiled=compiled)


def _derivatives(layer, readout, a, w):
    """⟨Z⟩, d⟨Z⟩/da (``create_graph``) and the second-order parameter
    gradient of a loss on both."""
    acts = Tensor(a, requires_grad=True)
    z = readout(acts)
    (dz,) = grad((z * w).sum(), [acts], create_graph=True)
    (dp,) = grad((dz * dz).mean() + (z * z).mean(), [layer.params])
    return z.data, dz.data, dp.data


class TestTransferMatrix:
    """``mag @ W`` against the gate-by-gate plan: equal to rounding."""

    @pytest.mark.parametrize("ansatz", ANSATZ_NAMES)
    @pytest.mark.parametrize("batch", [40, 300])  # below and above 2⁷
    def test_matches_the_gate_by_gate_plan(self, ansatz, batch):
        rng = np.random.default_rng(batch)
        layer = QuantumLayer(n_qubits=7, n_layers=4, ansatz=ansatz, rng=rng)
        assert layer.uses_transfer_matrix
        a = rng.uniform(-0.95, 0.95, (batch, 7))
        w = rng.normal(size=(batch, 7))
        dense = _derivatives(layer, layer, a, w)
        gate = _derivatives(
            layer,
            lambda acts: pauli_z_expectations(_gate_by_gate(layer, acts)),
            a, w,
        )
        for got, want in zip(dense, gate):  # ⟨Z⟩, d⟨Z⟩/da, d²/dθ
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ansatz", ANSATZ_NAMES)
    def test_matches_the_interpreted_path_and_the_dense_oracle(self, ansatz):
        """W's blocks come from the gate table; the interpreted per-gate
        path and ``torq.reference`` keep their own arithmetic."""
        rng = np.random.default_rng(11)
        layer = QuantumLayer(n_qubits=7, n_layers=2, ansatz=ansatz, rng=rng)
        a = rng.uniform(-0.95, 0.95, (5, 7))
        w = rng.normal(size=(5, 7))
        table = _derivatives(layer, layer, a, w)
        interpreted = _derivatives(
            layer,
            lambda acts: pauli_z_expectations(
                _gate_by_gate(layer, acts, compiled=False)),
            a, w,
        )
        for got, want in zip(table, interpreted):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        oracle = NaiveSimulator(layer.ansatz, scaling=layer.scaling)
        np.testing.assert_allclose(
            table[0], oracle.forward(a, layer.params.data), rtol=0, atol=1e-12
        )

    def test_run_state_is_the_final_state(self, rng):
        layer = QuantumLayer(n_qubits=7, n_layers=2, rng=rng)
        acts = Tensor(rng.uniform(-0.95, 0.95, (9, 7)))
        got = layer.run_state(acts)
        want = _gate_by_gate(layer, acts)
        assert got.n_qubits == 7 and got.batch == 9
        for g, e in ((got.tensor.re, want.tensor.re),
                     (got.tensor.im, want.tensor.im)):
            np.testing.assert_allclose(g.data, e.data, rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            layer.run_state(Tensor(np.zeros((3, 6))))

    @staticmethod
    def _plan_batches(monkeypatch, layer, batch):
        """Row counts every ``ExecutionPlan.run`` sees in one forward."""
        seen = []
        run = torq_compile.ExecutionPlan.run

        def recording(plan, state, resolve):
            seen.append(state.batch)
            return run(plan, state, resolve)

        monkeypatch.setattr(torq_compile.ExecutionPlan, "run", recording)
        acts = Tensor(np.random.default_rng(3).uniform(
            -0.9, 0.9, (batch, layer.n_qubits)))
        assert layer(acts).shape == (batch, layer.n_qubits)
        return seen

    def test_the_paper_layer_runs_the_ansatz_on_the_basis_rows(
            self, monkeypatch):
        from repro.core.models import MaxwellQPINN

        layer = MaxwellQPINN(rng=np.random.default_rng(0)).quantum
        assert layer.uses_transfer_matrix
        assert self._plan_batches(monkeypatch, layer, 300) == [2 ** 7]

    def test_larger_circuits_run_gate_by_gate(self, monkeypatch):
        n = torq_layer._TRANSFER_MAX_QUBITS + 1
        layer = QuantumLayer(n_qubits=n, n_layers=1,
                             rng=np.random.default_rng(0))
        assert not layer.uses_transfer_matrix
        assert self._plan_batches(monkeypatch, layer, 3) == [3]


def _record_plan_runs(monkeypatch):
    """Row counts of every ``ExecutionPlan.run`` from here on."""
    seen = []
    run = torq_compile.ExecutionPlan.run

    def recording(plan, state, resolve):
        seen.append(state.batch)
        return run(plan, state, resolve)

    monkeypatch.setattr(torq_compile.ExecutionPlan, "run", recording)
    return seen


def _paper_case():
    from repro.core.config import get_case
    from repro.core.models import MaxwellQPINN

    case = get_case("vacuum")
    model = MaxwellQPINN(rng=np.random.default_rng(0), t_max=case.t_max)
    return case, model


class TestTransferScope:
    """One W per loss call and per diagnostic, never across an update."""

    def test_a_loss_call_runs_the_plan_once(self, monkeypatch):
        case, model = _paper_case()
        loss_fn = case.make_loss(use_energy=True)
        grid = case.make_grid(3)
        seen = _record_plan_runs(monkeypatch)
        loss, _ = loss_fn(model, grid)
        assert seen == [2 ** 7]
        ad.backward(loss, model.parameters())  # both uses' cotangents
        assert model.quantum.params.grad is not None
        seen.clear()
        loss_fn.loss_tensors(model, grid)
        assert seen == [2 ** 7]

    def test_diagnostics_build_w_once(self, monkeypatch):
        from repro.core.blackhole import model_bh_indicator
        from repro.core.config import make_reference
        from repro.core.metrics import _L2_BATCH, l2_relative_error

        case, model = _paper_case()
        reference = make_reference(case, n=16, n_snapshots=5)
        seen = _record_plan_runs(monkeypatch)
        l2_relative_error(model, reference, n_space=16, n_time=10)
        assert 16 * 16 * 10 > _L2_BATCH  # more than one chunk
        assert seen == [2 ** 7]
        seen.clear()
        model_bh_indicator(model, case.t_max, n_space=8, n_times=6)
        assert seen == [2 ** 7]

    def test_a_loss_after_an_adam_step_sees_the_update(self):
        """Adam writes ``p.data`` in place; the next call rebuilds W."""
        from repro.core.models import MaxwellQPINN

        case, model = _paper_case()
        loss_fn = case.make_loss(use_energy=True)
        grid = case.make_grid(3)
        params = model.parameters()
        opt = Adam(params, lr=0.05)
        loss, _ = loss_fn(model, grid)
        ad.backward(loss, params)
        opt.step()
        second, _ = loss_fn(model, grid)
        fresh = MaxwellQPINN(rng=np.random.default_rng(0), t_max=case.t_max)
        for p, q in zip(fresh.parameters(), params):
            p.data[...] = q.data
        want, _ = loss_fn(fresh, grid)
        assert float(second.data) == float(want.data)
        assert float(second.data) != float(loss.data)

    def test_scopes_nest_and_stay_per_thread(self):
        layer = QuantumLayer(n_qubits=3, n_layers=1,
                             rng=np.random.default_rng(0))
        with torq_layer.transfer_scope():
            w = layer.transfer_matrix()
            with torq_layer.transfer_scope():
                assert layer.transfer_matrix() is w
            assert layer.transfer_matrix() is w  # the inner exit keeps it
            with ad.no_grad():
                assert layer.transfer_matrix() is not w  # per grad mode
            other = {}
            thread = threading.Thread(
                target=lambda: other.update(w=layer.transfer_matrix()))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert other["w"] is not w
            np.testing.assert_array_equal(other["w"].data, w.data)
        assert layer.transfer_matrix() is not w


class TestGateTable:
    """Every fused block of a plan comes from one cos and one sin."""

    def test_a_w_build_takes_one_cos_and_one_sin(self, monkeypatch):
        _, model = _paper_case()
        layer = model.quantum
        calls = []
        for name in ("cos", "sin"):
            fn = getattr(ad, name)
            monkeypatch.setattr(
                ad, name, lambda a, fn=fn, name=name: calls.append(name) or fn(a)
            )
        layer.transfer_matrix()
        assert sorted(calls) == ["cos", "sin"]

    def test_a_cross_mesh_w_build_takes_one_cos_per_kernel(self, monkeypatch):
        """The 28 lone RX gates of a 7-qubit, 4-layer ``cross_mesh`` are
        one-gate fused steps of the gate table: a W build takes one cos
        for the table and one per CRZ mesh (its phase mask's ``expi``)."""
        layer = QuantumLayer(n_qubits=7, n_layers=4, ansatz="cross_mesh",
                             rng=np.random.default_rng(0))
        calls = []
        cos = ad.cos
        monkeypatch.setattr(ad, "cos", lambda a: calls.append(a) or cos(a))
        layer.transfer_matrix()
        assert len(calls) == 5

    def test_batched_shift_forward_peak_does_not_grow(self):
        """Per-batch angles build each run's block from that run's own
        angles, so no per-row cos|sin array outlives its run.  The bound
        is the 7-qubit batched parameter-shift replay's (182 rows) peak
        with per-gate block builders, 1.316 MB; the table peaks at
        1.293 MB, and a run-wide cos|sin array at 1.67 MB."""
        layer = QuantumLayer(n_qubits=7, n_layers=4,
                             rng=np.random.default_rng(1))
        gates = layer.embedded_gate_sequence()
        acts = np.random.default_rng(2).uniform(-0.9, 0.9, (1, 7))
        values = [Tensor(acts[:, q]) for q in range(7)]
        values += [float(v) for v in layer.params.data]
        weights = np.ones((1, 7))
        batched_state_shift_vjp(gates, 7, values, weights)  # warm caches
        tracemalloc.start()
        try:
            batched_state_shift_vjp(gates, 7, values, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1_320_000
