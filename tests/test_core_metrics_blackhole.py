"""Metrics (Eq. 32) and black-hole diagnostics (§5) tests."""

import numpy as np
import pytest

from repro import autodiff as ad
from repro.core import (
    BHReport,
    classify_bh_phenomenon,
    evaluate_fields,
    is_collapsed,
    l2_relative_error,
    l2_relative_error_fields,
    model_bh_indicator,
    model_energy_series,
)
from repro.solvers import SpectralVacuumSolver


class FieldModel:
    """Closed-form fields (e.g. the exact reference itself)."""

    def __init__(self, ez, hx=None, hy=None):
        self.ez_fn = ez
        self.hx_fn = hx if hx is not None else (lambda x, y, t: x * 0.0)
        self.hy_fn = hy if hy is not None else (lambda x, y, t: x * 0.0)

    def fields(self, x, y, t):
        return self.ez_fn(x, y, t), self.hx_fn(x, y, t), self.hy_fn(x, y, t)


def exact_model(n=32):
    """Wrap the spectral solution so it can be queried like a network."""
    solver = SpectralVacuumSolver(n=n)
    ref = solver.solve(1.0, n_snapshots=40)

    def make(field_index):
        def fn(x, y, t):
            values = ref.interpolate(x.data[:, 0], y.data[:, 0], t.data[:, 0])
            return ad.Tensor(values[field_index].reshape(-1, 1))
        return fn

    return FieldModel(make(0), make(1), make(2)), ref


class TestL2Metric:
    def test_identical_fields_zero_error(self, rng):
        ref = rng.normal(size=100)
        assert l2_relative_error_fields(ref, ref) == 0.0

    def test_zero_prediction_unit_error(self, rng):
        ref = rng.normal(size=100)
        np.testing.assert_allclose(l2_relative_error_fields(np.zeros(100), ref), 1.0)

    def test_scaling_formula(self, rng):
        ref = rng.normal(size=50)
        np.testing.assert_allclose(
            l2_relative_error_fields(2.0 * ref, ref), 1.0, rtol=1e-12
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            l2_relative_error_fields(np.zeros(3), np.zeros(4))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            l2_relative_error_fields(np.ones(3), np.zeros(3))

    def test_exact_solution_has_tiny_l2(self):
        model, ref = exact_model()
        err = l2_relative_error(model, ref, n_space=12, n_time=6)
        assert err < 1e-6

    def test_zero_model_has_unit_l2(self):
        _, ref = exact_model()
        zero = FieldModel(lambda x, y, t: x * 0.0)
        np.testing.assert_allclose(
            l2_relative_error(zero, ref, n_space=12, n_time=6), 1.0
        )

    def test_field_selection(self):
        model, ref = exact_model()
        for field in ("ez", "hx", "hy"):
            err = l2_relative_error(model, ref, n_space=10, n_time=5, field=field)
            assert err < 1e-6


class TestL2Chunking:
    """The per-epoch L2 evaluates in small chunks, so its transient is a
    bounded, layout-independent heap demand."""

    @staticmethod
    def _reference():
        # 32² space points × 10 times = the default 10,240-point L2 grid.
        return SpectralVacuumSolver(n=32).solve(1.0, n_snapshots=12)

    def test_chunk_size_does_not_change_values(self):
        from repro.core.models import build_model

        model = build_model("strongly_entangling", rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x, y, t = rng.uniform(-1, 1, (3, 4096))
        small = evaluate_fields(model, x, y, t, batch_size=2048)
        large = evaluate_fields(model, x, y, t, batch_size=16384)
        for a, b in zip(small, large):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_pinn_l2_eval_peak_memory_is_bounded(self):
        import tracemalloc

        from repro.core.models import build_model

        model = build_model("regular", rng=np.random.default_rng(0))
        ref = self._reference()
        tracemalloc.start()
        try:
            l2_relative_error(model, ref)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2,048-row chunks peak near 11 MB; one 10,240-row batch ~54 MB.
        assert peak < 20e6


class TestEvaluateFields:
    def test_shapes(self):
        model = FieldModel(lambda x, y, t: x * 2.0)
        ez, hx, hy = evaluate_fields(model, np.zeros(7), np.zeros(7), np.zeros(7))
        assert ez.shape == hx.shape == hy.shape == (7,)

    def test_batching_consistency(self, rng):
        model = FieldModel(lambda x, y, t: ad.sin(x) * ad.cos(y) + t)
        x, y, t = rng.uniform(-1, 1, (3, 40))
        full = evaluate_fields(model, x, y, t)[0]
        batched = evaluate_fields(model, x, y, t, batch_size=7)[0]
        np.testing.assert_allclose(full, batched)

    def test_no_graph_created(self):
        model = FieldModel(lambda x, y, t: x * 1.0)
        evaluate_fields(model, np.zeros(3), np.zeros(3), np.zeros(3))
        assert ad.is_grad_enabled()


class TestEnergySeries:
    def test_constant_fields_constant_energy(self):
        model = FieldModel(lambda x, y, t: x * 0.0 + 1.0)
        times, energies = model_energy_series(model, t_max=1.0, n_times=5)
        assert times.shape == energies.shape == (5,)
        np.testing.assert_allclose(energies, energies[0])

    def test_exact_solution_energy_flat(self):
        model, _ = exact_model()
        _, energies = model_energy_series(model, t_max=0.8, n_space=24, n_times=6)
        # trilinear interpolation + 24-point quadrature wobble ~ a few %
        np.testing.assert_allclose(energies / energies[0], 1.0, atol=0.05)

    def test_collapsed_model_indicator_near_one(self):
        def ez(x, y, t):
            # pulse at t=0 that vanishes immediately afterwards
            gate = ad.Tensor((t.data < 0.05).astype(float))
            return ad.exp(-25.0 * (x * x + y * y)) * gate

        collapsed = FieldModel(ez)
        i_bh = model_bh_indicator(collapsed, t_max=1.5, n_times=10)
        assert i_bh > 0.95

    def test_exact_solution_indicator_near_zero(self):
        model, _ = exact_model()
        i_bh = model_bh_indicator(model, t_max=0.8, n_space=24, n_times=6)
        assert abs(i_bh) < 0.05

    def test_custom_eps_fn(self):
        model = FieldModel(lambda x, y, t: x * 0.0 + 1.0)
        _, e_vac = model_energy_series(model, t_max=1.0, n_times=3)
        _, e_diel = model_energy_series(
            model, t_max=1.0, n_times=3, eps_fn=lambda x, y: 4.0 * np.ones_like(x)
        )
        assert e_diel[0] == pytest.approx(4.0 * e_vac[0])


class TestCollapseClassification:
    def test_is_collapsed_threshold(self):
        assert is_collapsed(0.9)
        assert not is_collapsed(0.3)

    def test_phenomenon_all_collapsed(self):
        report = classify_bh_phenomenon([0.95, 0.99, 0.97])
        assert report.is_phenomenon
        assert report.collapsed_fraction == 1.0

    def test_phenomenon_requires_over_95_percent(self):
        indicators = [0.99] * 19 + [0.1]
        report = classify_bh_phenomenon(indicators)
        assert not report.is_phenomenon  # exactly 95 % is not > 95 %

    def test_no_collapse(self):
        report = classify_bh_phenomenon([0.05, 0.1])
        assert not report.is_phenomenon
        assert report.collapsed_fraction == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_bh_phenomenon([])

    def test_report_str(self):
        assert "I_BH" in str(classify_bh_phenomenon([0.5]))
