"""Tests for the neural-network layer library."""

import numpy as np
import pytest

from repro import autodiff as ad
from repro import nn
from repro.autodiff import Tensor, grad


class TestParameter:
    def test_always_requires_grad(self):
        assert nn.Parameter([1.0]).requires_grad

    def test_promotes_to_float64(self):
        assert nn.Parameter(np.array([1, 2])).dtype == np.float64

    def test_built_under_no_grad_still_trains(self):
        """A model built inside ``no_grad()`` gets real gradients: the
        flag no longer follows the grad mode at construction."""
        from repro.core.models import MaxwellQPINN

        with ad.no_grad():
            model = MaxwellQPINN(rng=np.random.default_rng(0))
        params = model.parameters()
        assert all(p.requires_grad for p in params)
        pts = np.random.default_rng(1).uniform(-1, 1, (3, 8, 1))
        out = model(*(Tensor(a) for a in pts))
        ad.backward((out * out).mean(), params)
        assert all(np.any(p.grad != 0.0) for p in params)


class TestModule:
    def _make(self, rng):
        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc1 = nn.Linear(2, 3, rng=rng)
                self.fc2 = nn.Linear(3, 1, rng=rng)

            def forward(self, x):
                return self.fc2(ad.tanh(self.fc1(x)))

        return Net()

    def test_named_parameters_recursive(self, rng):
        names = [n for n, _ in self._make(rng).named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self, rng):
        assert self._make(rng).num_parameters() == 2 * 3 + 3 + 3 * 1 + 1

    def test_zero_grad_clears(self, rng):
        net = self._make(rng)
        x = Tensor(np.ones((4, 2)))
        ad.backward(net(x).sum(), net.parameters())
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_state_dict_roundtrip(self, rng):
        net = self._make(rng)
        state = net.state_dict()
        net2 = self._make(np.random.default_rng(99))
        net2.load_state_dict(state)
        x = Tensor(np.ones((2, 2)))
        np.testing.assert_allclose(net(x).data, net2(x).data)

    def test_load_state_dict_missing_key(self, rng):
        net = self._make(rng)
        state = net.state_dict()
        state.pop("fc1.weight")
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self, rng):
        net = self._make(rng)
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_modules_iterates_tree(self, rng):
        assert len(list(self._make(rng).modules())) == 3


class TestLinear:
    def test_output_shape(self, rng):
        layer = nn.Linear(4, 7, rng=rng)
        assert layer(Tensor(np.ones((5, 4)))).shape == (5, 7)

    def test_no_bias(self, rng):
        layer = nn.Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert layer.num_parameters() == 6

    def test_zero_input_gives_bias(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        layer.bias.data = np.array([1.0, -1.0])
        out = layer(Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]])

    def test_gradients_flow_to_parameters(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        gw, gb = grad(layer(x).sum(), [layer.weight, layer.bias])
        np.testing.assert_allclose(gb.data, [4.0, 4.0])
        np.testing.assert_allclose(gw.data, np.outer(x.data.sum(axis=0), [1, 1]))

    def test_xavier_bound(self, rng):
        layer = nn.Linear(100, 100, rng=rng)
        bound = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= bound


class TestActivationsAndSequential:
    def test_tanh_module(self):
        x = Tensor([0.5])
        np.testing.assert_allclose(nn.Tanh()(x).data, np.tanh(0.5))

    def test_sin_module(self):
        np.testing.assert_allclose(nn.Sin()(Tensor([0.5])).data, np.sin(0.5))

    def test_identity(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_allclose(nn.Identity()(x).data, x.data)

    def test_lambda_module(self):
        double = nn.Lambda(lambda t: t * 2.0, label="double")
        np.testing.assert_allclose(double(Tensor([2.0])).data, [4.0])

    def test_sequential_composition(self, rng):
        net = nn.Sequential(nn.Linear(2, 3, rng=rng), nn.Tanh(), nn.Linear(3, 1, rng=rng))
        assert net(Tensor(np.ones((4, 2)))).shape == (4, 1)

    def test_sequential_indexing_and_len(self, rng):
        net = nn.Sequential(nn.Tanh(), nn.Identity())
        assert len(net) == 2
        assert isinstance(net[0], nn.Tanh)

    def test_sequential_registers_parameters(self, rng):
        net = nn.Sequential(nn.Linear(2, 2, rng=rng), nn.Linear(2, 2, rng=rng))
        assert net.num_parameters() == 2 * (4 + 2)


class TestRandomFourierFeatures:
    def test_output_shape(self, rng):
        rff = nn.RandomFourierFeatures(3, num_features=16, rng=rng)
        assert rff(Tensor(np.ones((5, 3)))).shape == (5, 32)
        assert rff.out_features == 32

    def test_projection_is_frozen(self, rng):
        rff = nn.RandomFourierFeatures(3, num_features=8, rng=rng)
        assert rff.num_parameters() == 0

    def test_cos_sin_structure(self, rng):
        rff = nn.RandomFourierFeatures(2, num_features=4, rng=rng)
        x = np.random.default_rng(1).normal(size=(3, 2))
        out = rff(Tensor(x)).data
        proj = x @ rff.projection
        np.testing.assert_allclose(out[:, :4], np.cos(proj))
        np.testing.assert_allclose(out[:, 4:], np.sin(proj))

    def test_bounded_outputs(self, rng):
        rff = nn.RandomFourierFeatures(3, num_features=8, sigma=10.0, rng=rng)
        out = rff(Tensor(np.random.default_rng(0).normal(size=(20, 3)))).data
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_gradient_flows_through(self, rng):
        rff = nn.RandomFourierFeatures(2, num_features=4, rng=rng)
        x = Tensor(np.random.default_rng(2).normal(size=(3, 2)), requires_grad=True)
        (g,) = grad(rff(x).sum(), [x])
        assert g.shape == (3, 2)
        assert np.any(g.data != 0)

    def test_sigma_scales_frequencies(self):
        r1 = nn.RandomFourierFeatures(1, 512, sigma=1.0, rng=np.random.default_rng(0))
        r2 = nn.RandomFourierFeatures(1, 512, sigma=5.0, rng=np.random.default_rng(0))
        assert r2.projection.std() > 3 * r1.projection.std()


class TestPeriodicEmbedding:
    def test_output_shape(self):
        emb = nn.PeriodicSpaceTimeEmbedding()
        out = emb(Tensor(np.zeros((4, 3))))
        assert out.shape == (4, 6)

    def test_strict_spatial_periodicity(self):
        emb = nn.PeriodicSpaceTimeEmbedding(lengths=(2.0, 2.0))
        rng = np.random.default_rng(0)
        coords = rng.uniform(-1, 1, (5, 3))
        shifted = coords.copy()
        shifted[:, 0] += 2.0  # one full x period
        shifted[:, 1] -= 4.0  # two full y periods
        np.testing.assert_allclose(
            emb(Tensor(coords)).data, emb(Tensor(shifted)).data, atol=1e-12
        )

    def test_time_period_is_learnable(self):
        emb = nn.PeriodicSpaceTimeEmbedding(time_period_init=3.0)
        assert emb.num_parameters() == 1
        np.testing.assert_allclose(emb.time_period().data, [3.0], rtol=1e-10)

    def test_time_period_gradient_flows(self):
        emb = nn.PeriodicSpaceTimeEmbedding()
        coords = Tensor(np.random.default_rng(0).uniform(0, 1, (4, 3)))
        (g,) = grad(emb(coords).sum(), [emb.raw_time_period])
        assert g.shape == (1,)
        assert abs(g.data[0]) > 0

    def test_rejects_wrong_width(self):
        emb = nn.PeriodicSpaceTimeEmbedding()
        with pytest.raises(ValueError):
            emb(Tensor(np.zeros((4, 2))))

    def test_rejects_bad_init(self):
        with pytest.raises(ValueError):
            nn.PeriodicSpaceTimeEmbedding(time_period_init=-1.0)

    def test_feature_order_sin_cos(self):
        emb = nn.PeriodicSpaceTimeEmbedding(lengths=(2.0, 2.0), time_period_init=2.0)
        out = emb(Tensor(np.array([[0.5, 0.0, 0.0]]))).data[0]
        np.testing.assert_allclose(out[0], np.sin(np.pi * 0.5), atol=1e-12)
        np.testing.assert_allclose(out[1], np.cos(np.pi * 0.5), atol=1e-12)
        np.testing.assert_allclose(out[2:4], [0.0, 1.0], atol=1e-12)


class TestInit:
    def test_xavier_uniform_range(self, rng):
        w = nn.xavier_uniform(rng, 10, 10)
        assert np.abs(w).max() <= np.sqrt(6.0 / 20)

    def test_xavier_normal_std(self, rng):
        w = nn.xavier_normal(rng, 500, 500)
        assert abs(w.std() - np.sqrt(2.0 / 1000)) < 0.005

    def test_uniform(self, rng):
        w = nn.uniform(rng, (100,), -2.0, 2.0)
        assert w.min() >= -2.0 and w.max() <= 2.0

    def test_zeros_init(self):
        assert np.all(nn.zeros_init((3, 3)) == 0.0)
