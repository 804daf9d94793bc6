"""Tests for the tensor type and the reverse-mode engine."""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import Tensor, backward, grad


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0])
        assert t.shape == (2,)
        assert t.dtype == np.float64

    def test_construction_from_int_array_promotes_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float64

    def test_scalar_tensor(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert t.item() == 3.5

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_leaf_has_no_parents(self):
        assert Tensor([1.0], requires_grad=True).is_leaf

    def test_op_result_is_not_leaf(self):
        x = Tensor([1.0], requires_grad=True)
        assert not (x + 1.0).is_leaf

    def test_op_without_grad_inputs_is_leaf(self):
        x = Tensor([1.0])
        assert (x + 1.0).is_leaf

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x).detach()
        assert not y.requires_grad
        assert y.is_leaf

    def test_numpy_returns_underlying(self):
        data = np.array([1.0, 2.0])
        assert Tensor(data).numpy() is data

    def test_copy_is_independent(self):
        t = Tensor(np.array([1.0]))
        c = t.copy()
        c.data[0] = 5.0
        assert t.data[0] == 1.0

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_size_and_ndim(self):
        t = Tensor(np.ones((2, 3)))
        assert t.size == 6
        assert t.ndim == 2


class TestGradModes:
    def test_no_grad_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_enable_grad_inside_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            with ad.enable_grad():
                y = x * 2.0
        assert y.requires_grad

    def test_grad_mode_restored_after_exception(self):
        try:
            with ad.no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert ad.is_grad_enabled()

    def test_tensor_created_in_no_grad_ignores_requires_grad(self):
        with ad.no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


class TestGradFunction:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + 3.0 * x
        (g,) = grad(y.sum(), [x])
        np.testing.assert_allclose(g.data, [7.0])

    def test_grad_single_tensor_input(self):
        x = Tensor([2.0], requires_grad=True)
        g = grad((x * x).sum(), x)
        np.testing.assert_allclose(g[0].data, [4.0])

    def test_reused_input(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x * x
        (g,) = grad(y.sum(), [x])
        np.testing.assert_allclose(g.data, [27.0])

    def test_multiple_inputs(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (ga, gb) = grad((a * b).sum(), [a, b])
        np.testing.assert_allclose(ga.data, b.data)
        np.testing.assert_allclose(gb.data, a.data)

    def test_unused_input_raises(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            grad((a * a).sum(), [a, b])

    def test_allow_unused_returns_zeros(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0, 2.0], requires_grad=True)
        (_, gb) = grad((a * a).sum(), [a, b], allow_unused=True)
        np.testing.assert_allclose(gb.data, [0.0, 0.0])

    def test_non_scalar_output_requires_grad_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad(x * 2.0, [x])

    def test_explicit_grad_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (g,) = grad(x * x, [x], grad_output=Tensor([1.0, 0.5]))
        np.testing.assert_allclose(g.data, [2.0, 2.0])

    def test_grad_output_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad(x * x, [x], grad_output=Tensor([1.0]))

    def test_output_without_grad_raises(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            grad((x * 2.0).sum(), [x])

    def test_output_without_grad_allow_unused(self):
        x = Tensor([1.0])
        (g,) = grad((x * 2.0).sum(), [x], allow_unused=True)
        np.testing.assert_allclose(g.data, [0.0])

    def test_non_tensor_input_raises(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(TypeError):
            grad((x * x).sum(), [np.array([1.0])])

    def test_grad_wrt_interior_node(self):
        x = Tensor([2.0], requires_grad=True)
        mid = x * x
        y = (mid * 3.0).sum()
        (g_mid,) = grad(y, [mid])
        np.testing.assert_allclose(g_mid.data, [3.0])

    def test_grad_of_input_that_is_output(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 1.0
        (g,) = grad(y.sum(), [x])
        np.testing.assert_allclose(g.data, [1.0])

    def test_create_graph_gradient_is_differentiable(self):
        x = Tensor([2.0], requires_grad=True)
        (g,) = grad((x * x * x).sum(), [x], create_graph=True)
        assert g.requires_grad
        (h,) = grad(g.sum(), [x])
        np.testing.assert_allclose(h.data, [12.0])

    def test_without_create_graph_gradient_is_constant(self):
        x = Tensor([2.0], requires_grad=True)
        (g,) = grad((x * x).sum(), [x], create_graph=False)
        assert not g.requires_grad

    def test_diamond_graph(self):
        x = Tensor([1.5], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        y = (a * b).sum()  # 6 x^2 -> dy/dx = 12 x
        (g,) = grad(y, [x])
        np.testing.assert_allclose(g.data, [18.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        (g,) = grad(y.sum(), [x])
        np.testing.assert_allclose(g.data, [1.0])


def _reaches(node, target) -> bool:
    """Whether ``target`` is ``node`` or one of its graph ancestors."""
    stack, seen = [node], set()
    while stack:
        t = stack.pop()
        if t is target:
            return True
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(p for p, _ in t._parents)
    return False


class TestGradPruning:
    """``grad`` runs only the VJPs whose parent reaches a requested input."""

    def test_create_graph_pass_differentiates_only_toward_the_input(self):
        from repro.autodiff.tensor import set_backward_hook

        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        h = ad.tanh(x @ w + b)
        y = ((h * ad.exp(b)).sum(axis=1) * ad.sin(w).sum()).sum()

        parents = []

        def hook(node, vjp, ct):
            parents.append(next(p for p, fn in node._parents if fn is vjp))
            return vjp(ct)

        set_backward_hook(hook)
        try:
            (gx,) = grad(y, [x], create_graph=True)
        finally:
            set_backward_hook(None)
        assert parents
        assert all(_reaches(p, x) for p in parents)
        assert gx.requires_grad
        full = grad(y, [x, w])[0]
        assert gx.data.tobytes() == full.data.tobytes()


class TestBackward:
    def test_accumulates_into_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward((x * x).sum(), [x])
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_accumulation_is_additive(self):
        x = Tensor([1.0], requires_grad=True)
        backward((x * x).sum(), [x])
        backward((x * x).sum(), [x])
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        backward((x * x).sum(), [x])
        x.zero_grad()
        assert x.grad is None

    def test_unreached_param_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        w = Tensor([1.0], requires_grad=True)
        backward((x * x).sum(), [x, w])
        assert w.grad is None or np.allclose(w.grad, 0.0)


class TestConstructors:
    def test_zeros(self):
        assert np.all(ad.zeros((2, 2)).data == 0)

    def test_ones(self):
        assert np.all(ad.ones(3).data == 1)

    def test_full(self):
        assert np.all(ad.full((2,), 7.0).data == 7.0)

    def test_arange(self):
        np.testing.assert_allclose(ad.arange(3).data, [0.0, 1.0, 2.0])

    def test_linspace(self):
        np.testing.assert_allclose(ad.linspace(0, 1, 3).data, [0.0, 0.5, 1.0])

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert ad.as_tensor(t) is t
