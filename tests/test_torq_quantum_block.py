"""The QuantumLayer backprop kernels: product-state RX embedding, the
one-square ⟨Z⟩ readout and the row GEMM of short-stride fused runs.

Each kernel replaces a slower form that stays in the library as its
oracle: ``angle_embedding(zero_state(...))`` for the product state,
per-qubit :func:`marginal_probability` for the readout, and the broadcast
block product for the row GEMM.
"""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import Tensor, check_double_grad, check_grad, grad
from repro.autodiff.tape import compile_step
from repro.nn import Linear
from repro.torq import (
    QuantumLayer,
    angle_embedding,
    apply_ansatz,
    make_ansatz,
    marginal_probability,
    pauli_z_expectations,
    rx_product_state,
    zero_state,
)
from repro.torq import compile as torq_compile
from repro.torq.ansatz import GateSpec
from repro.torq.complexnum import ComplexTensor


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
    """A lone Rot step reading the canonical packed order."""
    step = torq_compile._FusedSingleQubitStep(
        [GateSpec("rot", (qubit,), (0, 1, 2))], qubit, n_qubits
    )
    step.bind(tuple(range(n_qubits + 2)), None)
    return step


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
            step = _fused_rot(n, qubit)
            unpack = torq_compile._Unpack(step.order)
            rows = unpack(step(packed, lambda i: angles[i]))
            with monkeypatch.context() as mp:
                mp.setattr(torq_compile, "_row_gemm", lambda m, post: False)
                bcast = unpack(step(packed, lambda i: angles[i]))
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
