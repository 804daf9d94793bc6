"""Tests for the trace-once/replay-many tape compiler and its satellites.

The tape's contract is *bitwise* equivalence: a replayed step must
reproduce the define-by-run loss, parameter gradients, and auxiliary
outputs exactly — including steps whose loss contains second-order
(residual) derivatives — while never raising on unsupported structure.
"""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import autodiff as ad
from repro.autodiff import Tensor, backward, grad, make_node
from repro.autodiff import tape as tape_mod
from repro.autodiff import tensor as tensor_mod
from repro.autodiff.tape import (
    CompiledStep,
    TapeFallback,
    _k_matmul_rowstable,
    _k_tensor_sum_rowstable,
    compile_forward,
    compile_step,
    trace,
)
from repro.optim import Adam


def _direct(fn, arrays, params):
    """Reference define-by-run evaluation of a step function."""
    for p in params:
        p.grad = None
    out = fn(*arrays)
    loss, aux = out if isinstance(out, tuple) else (out, {})
    backward(loss, params)
    return (
        float(loss.data),
        [None if p.grad is None else p.grad.copy() for p in params],
        {k: np.array(v.data, copy=True) for k, v in aux.items()},
    )


def _assert_step_matches(step, fn, arrays, params, replays=4):
    """Replay ``replays`` times; every result must match define-by-run."""
    ref_loss, ref_grads, ref_aux = _direct(fn, arrays, params)
    for _ in range(replays):
        loss, grads, aux = step(*arrays)
        assert loss == ref_loss
        for g, rg in zip(grads, ref_grads):
            assert np.array_equal(g, rg)
        for k, rv in ref_aux.items():
            assert np.array_equal(aux[k], rv)


def _mlp_params(rng, sizes=(3, 8, 1)):
    params = []
    for n_in, n_out in zip(sizes, sizes[1:]):
        params.append(Tensor(rng.normal(size=(n_in, n_out)) * 0.5,
                             requires_grad=True))
        params.append(Tensor(rng.normal(size=(1, n_out)) * 0.1,
                             requires_grad=True))
    return params


def _mlp(params, x):
    h = x
    for i in range(0, len(params) - 2, 2):
        h = ad.tanh(h @ params[i] + params[i + 1])
    return h @ params[-2] + params[-1]


class TestPrimitiveReplay:
    """Per-primitive bitwise equality of replay vs. define-by-run."""

    @pytest.mark.parametrize("op", [
        lambda x: ad.tanh(x),
        lambda x: ad.sin(x) + ad.cos(x),
        lambda x: ad.exp(0.3 * x),
        lambda x: ad.log(x * x + 1.5),
        lambda x: ad.sqrt(x * x + 0.5),
        lambda x: ad.sigmoid(x),
        lambda x: ad.softplus(x),
        lambda x: ad.square(x) - x ** 3,
        lambda x: (x * x + 0.1) ** 1.5,
        lambda x: x / (2.0 + ad.square(x)),
        lambda x: (-x) + 1.0 - x * 0.5,
        lambda x: x.sum(axis=0, keepdims=True) * x,
        lambda x: x.mean(axis=1) * 2.0 - x.mean(),
        lambda x: x[1:, :] @ np.ones((2, 1)),
        lambda x: ad.concatenate([x, x * 2.0], axis=1).sum(axis=1),
        lambda x: ad.stack([x, -x], axis=0).sum(axis=0),
        lambda x: x.T @ x,
        lambda x: x.reshape(-1, 1).sum(axis=1),
    ])
    def test_primitive_bitwise(self, rng, op):
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        params = [w]

        def fn(a):
            return (op(Tensor(a) @ w) ** 2).sum()

        arrays = (rng.normal(size=(4, 4)),)
        step = compile_step(fn, params)
        _assert_step_matches(step, fn, arrays, params)
        assert not step.disabled

    @given(
        n=st.integers(2, 7),
        hidden=st.integers(2, 6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15)
    def test_second_order_residual_bitwise(self, n, hidden, seed):
        """Replay of a step with residual (double-backward) derivatives."""
        rng = np.random.default_rng(seed)
        params = _mlp_params(rng, (2, hidden, 1))

        def fn(pts):
            x = Tensor(pts[:, :1], requires_grad=True)
            t = Tensor(pts[:, 1:], requires_grad=True)
            u = _mlp(params, ad.concatenate([x, t], axis=1))
            u_x, u_t = grad(u.sum(), [x, t], create_graph=True)
            (u_xx,) = grad(u_x.sum(), [x], create_graph=True)
            res = u_t - 0.1 * u_xx + u * u
            return (res * res).mean()

        arrays = (rng.uniform(-1, 1, (n, 2)),)
        step = compile_step(fn, params)
        _assert_step_matches(step, fn, arrays, params, replays=3)
        assert not step.disabled

    def test_aux_outputs_bitwise(self, rng):
        params = _mlp_params(rng)

        def fn(a):
            y = _mlp(params, Tensor(a))
            res = (y * y).mean()
            reg = sum((p * p).sum() for p in params[:1])
            return res + 0.1 * reg, {"res": res, "reg": reg}

        arrays = (rng.normal(size=(5, 3)),)
        step = compile_step(fn, params)
        _assert_step_matches(step, fn, arrays, params)


class TestRetraceAndCache:
    def test_retrace_on_shape_change(self, rng):
        params = _mlp_params(rng)

        def fn(a):
            return (_mlp(params, Tensor(a)) ** 2).mean()

        step = compile_step(fn, params)
        small = (rng.normal(size=(4, 3)),)
        big = (rng.normal(size=(9, 3)),)
        _assert_step_matches(step, fn, small, params, replays=2)
        _assert_step_matches(step, fn, big, params, replays=2)
        # Back to the first shape: served from cache, not re-traced.
        _assert_step_matches(step, fn, small, params, replays=2)
        info = step.cache_info()
        assert info["misses"] == 1
        assert info["retraces"] == 1
        assert info["hits"] >= 4
        assert info["size"] == 2

    def test_params_read_live_each_replay(self, rng):
        """Optimiser updates (in-place or rebinding) reach the replay."""
        params = _mlp_params(rng)

        def fn(a):
            return (_mlp(params, Tensor(a)) ** 2).mean()

        arrays = (rng.normal(size=(6, 3)),)
        step = compile_step(fn, params)
        opt = Adam(params, lr=0.05)
        for _ in range(5):
            opt.zero_grad()
            _, grads, _ = step(*arrays)
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
        _assert_step_matches(step, fn, arrays, params)


class TestFallback:
    def test_unsupported_op_falls_back(self, rng):
        w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        params = [w]

        def fn(a):
            return (ad.relu(Tensor(a) @ w) ** 2).mean()

        arrays = (rng.normal(size=(5, 3)),)
        step = compile_step(fn, params)
        _assert_step_matches(step, fn, arrays, params)
        assert step.disabled  # permanently define-by-run, never an error
        assert step.cache_info()["fallbacks"] == 1

    def test_untraced_custom_node_falls_back(self, rng):
        w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        params = [w]

        def custom_double(t):
            return make_node(t.data * 2.0, [(t, lambda ct: ct * 2.0)])

        def fn(a):
            return (custom_double(Tensor(a) @ w) ** 2).mean()

        arrays = (rng.normal(size=(4, 3)),)
        step = compile_step(fn, params)
        _assert_step_matches(step, fn, arrays, params)
        assert step.disabled

    def test_non_float_input_falls_back(self, rng):
        w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        params = [w]

        def fn(idx):
            return ((Tensor(idx.astype(float)) @ w) ** 2).mean()

        step = compile_step(fn, params)
        arrays = (np.arange(12).reshape(4, 3),)
        _assert_step_matches(step, fn, arrays, params)
        assert step.disabled

    def test_impure_step_fn_caught_by_validation(self, rng):
        """A step whose behaviour drifts from its trace is disabled."""
        w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        params = [w]
        calls = {"n": 0}

        def fn(a):
            calls["n"] += 1
            return ((Tensor(a) @ w) ** 2).mean() * float(calls["n"])

        step = compile_step(fn, params)
        arrays = (rng.normal(size=(4, 3)),)
        step(*arrays)
        step(*arrays)  # replay validated against define-by-run -> mismatch
        assert step.disabled
        # Post-fallback calls keep returning live define-by-run results:
        # the counter keeps advancing, so the loss keeps growing.
        l1, _, _ = step(*arrays)
        l2, _, _ = step(*arrays)
        assert l2 > l1 > 0.0

    @pytest.mark.parametrize("forward_only", [False, True])
    def test_nan_replay_caught_by_validation(self, rng, monkeypatch,
                                             forward_only):
        """A replay kernel that writes NaN disables the step, which
        returns the define-by-run values instead of the NaN."""
        def nan_tanh(a, out=None):
            out = np.tanh(a, out=out)
            out[...] = np.nan
            return out

        monkeypatch.setitem(tape_mod.KERNELS, "tanh", (nan_tanh, 1))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        arrays = (rng.normal(size=(5, 3)),)
        if forward_only:
            step = compile_forward(lambda a: ad.tanh(ad.as_tensor(a) @ w))
            with ad.no_grad():
                expected = ad.tanh(ad.as_tensor(arrays[0]) @ w).data
            for _ in range(3):  # trace, validated replay, define-by-run
                assert np.array_equal(step(*arrays), expected)
            assert step.disabled == "forward replay mismatch vs define-by-run"
            return

        def fn(a):
            return ad.tanh(Tensor(a) @ w).mean()

        step = compile_step(fn, [w])
        _assert_step_matches(step, fn, arrays, [w], replays=3)
        assert step.disabled == "replay mismatch vs define-by-run"

    def test_nan_on_both_sides_is_equal(self, rng):
        """A NaN the model itself produces replays as a NaN and passes
        validation; only a one-sided NaN is a mismatch."""
        w = Tensor(rng.normal(size=(3, 2)))
        forward = compile_forward(lambda a: ad.tanh(ad.as_tensor(a) @ w))
        x = rng.normal(size=(4, 3))
        x[1, 0] = np.nan
        for _ in range(3):
            out = forward(x)
        assert forward.disabled is None
        assert np.isnan(out[1]).all() and np.isfinite(out[[0, 2, 3]]).all()
        assert tape_mod._deviation([np.nan, 1.0], [np.nan, 1.0], False) == 0
        assert tape_mod._deviation([np.nan, 1.0], [0.0, 1.0], False) == np.inf
        assert tape_mod._deviation([0.0, 1.0], [np.nan, 1.0], True) == np.inf
        assert tape_mod._deviation(np.inf, np.inf, False) == 0

    def test_codegen_failure_is_a_reported_fallback(self, rng, monkeypatch):
        """An error while generating the replay function disables the
        step with a reason naming codegen, and counts a fallback."""
        def broken_compile(*args, **kwargs):
            raise SyntaxError("generator broke")

        monkeypatch.setattr(tape_mod, "compile", broken_compile,
                            raising=False)
        w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)

        def fn(a):
            return ((Tensor(a) @ w) ** 2).mean()

        step = compile_step(fn, [w])
        _assert_step_matches(step, fn, (rng.normal(size=(4, 3)),), [w])
        assert "codegen" in step.disabled
        assert step.cache_info()["fallbacks"] == 1

    def test_trace_raises_tapefallback_directly(self, rng):
        def fn(a):
            return ad.relu(Tensor(a)).sum()

        with pytest.raises(TapeFallback):
            trace(fn, (rng.normal(size=(3,)),), [])


class TestZeroAllocReplay:
    def test_steady_state_replay_builds_no_graph_nodes(self, rng):
        params = _mlp_params(rng)

        def fn(a):
            x = Tensor(a, requires_grad=True)
            u = _mlp(params, x)
            (u_x,) = grad(u.sum(), [x], create_graph=True)
            return (u * u).mean() + (u_x * u_x).mean()

        arrays = (rng.normal(size=(8, 3)),)
        step = compile_step(fn, params)
        for _ in range(3):  # trace, validated replay, steady replay
            step(*arrays)
        counter = {"n": 0}
        orig = tensor_mod.Tensor.__init__

        def counting(self, *a, **k):
            counter["n"] += 1
            orig(self, *a, **k)

        tensor_mod.Tensor.__init__ = counting
        try:
            step(*arrays)
        finally:
            tensor_mod.Tensor.__init__ = orig
        assert counter["n"] == 0
        assert not step.disabled

    def test_frozen_replay_engaged(self, rng):
        """The first replay, the one checked against define-by-run,
        already runs the generated function."""
        params = _mlp_params(rng)

        def fn(a):
            return (_mlp(params, Tensor(a)) ** 2).mean()

        arrays = (rng.normal(size=(4, 3)),)
        step = compile_step(fn, params)
        step(*arrays)  # trace
        (executor,) = step._cache.values()
        generated = executor._replay
        assert generated.__code__.co_filename == "<tape-codegen>"
        pending = []

        def watched(arrays):
            pending.append(executor.needs_validation)
            return generated(arrays)

        executor._replay = watched
        step(*arrays)  # first replay, validated against define-by-run
        assert pending == [True]
        assert not executor.needs_validation
        assert step.disabled is None
        _assert_step_matches(step, fn, arrays, params)
        assert pending == [True] + [False] * 4

    def test_unary_chains_fuse_into_one_kernel(self, rng):
        """Single-use unary runs collapse to a __fused_chain entry and
        stay bitwise with define-by-run."""
        w = Tensor(rng.normal(size=(6,)), requires_grad=True)
        params = [w]

        def fn(a):
            y = ad.sin(Tensor(a) * w)
            z = ad.exp(-(y * y))
            return (z * z).sum()

        arrays = (rng.normal(size=(6,)),)
        step = compile_step(fn, params)
        _assert_step_matches(step, fn, arrays, params, replays=3)
        (executor,) = step._cache.values()
        assert executor.stats["chained"] >= 1
        assert not step.disabled

    def test_chain_intermediate_used_twice_is_not_fused(self, rng):
        """A reused intermediate must survive fusion (it feeds two ops)."""
        w = Tensor(rng.normal(size=(4,)), requires_grad=True)
        params = [w]

        def fn(a):
            y = ad.sin(Tensor(a) * w)
            # y used twice: once through exp, once directly.
            return (ad.exp(y) * y).sum()

        arrays = (rng.normal(size=(4,)),)
        step = compile_step(fn, params)
        _assert_step_matches(step, fn, arrays, params, replays=2)
        assert not step.disabled


class TestTrainerIntegration:
    def test_pde_trainer_compiled_matches_define_by_run(self):
        from repro.pde import GenericPINN, HeatProblem, PDETrainer, PDETrainerConfig

        problem = HeatProblem()
        runs = {}
        for compiled in (True, False):
            model = GenericPINN(
                problem.in_dim, problem.out_dim, hidden=8, n_hidden=2,
                rng=np.random.default_rng(7),
            )
            cfg = PDETrainerConfig(
                epochs=12, n_collocation=24, n_data=8, resample_every=5,
                eval_every=0, seed=3, compile_step=compiled,
            )
            result = PDETrainer(model, problem, cfg).train()
            runs[compiled] = (
                result.loss, [p.data.copy() for p in model.parameters()]
            )
        assert runs[True][0] == runs[False][0]
        for a, b in zip(runs[True][1], runs[False][1]):
            assert np.array_equal(a, b)

    def test_core_trainer_compiled_matches_define_by_run(self):
        from repro.core import (
            CollocationGrid, MaxwellLoss, MaxwellPINN, Trainer, TrainerConfig,
        )

        runs = {}
        for compiled in (True, False):
            model = MaxwellPINN(
                rng=np.random.default_rng(0), hidden=16, rff_features=8
            )
            trainer = Trainer(
                model, MaxwellLoss(), CollocationGrid(n=4),
                TrainerConfig(epochs=6, lr=1e-3, compile_step=compiled),
            )
            history = trainer.train().history
            runs[compiled] = (
                history.loss, history.components, history.grad_norm,
                [p.data.copy() for p in model.parameters()],
            )
        assert runs[True][:3] == runs[False][:3]
        for a, b in zip(runs[True][3], runs[False][3]):
            assert np.array_equal(a, b)

    def test_core_trainer_curriculum_ineligible(self):
        from repro import obs
        from repro.core import (
            CollocationGrid, MaxwellLoss, MaxwellPINN, TemporalCurriculum,
            Trainer, TrainerConfig,
        )

        model = MaxwellPINN(rng=np.random.default_rng(0), hidden=16,
                            rff_features=8)
        trainer = Trainer(
            model, MaxwellLoss(curriculum=TemporalCurriculum(ramp_epochs=4)),
            CollocationGrid(n=4), TrainerConfig(epochs=4, lr=1e-3),
        )
        counter = obs.metrics().counter("autodiff.tape.fallbacks",
                                        step=trainer._name)
        before = counter.value
        with obs.profile():
            history = trainer.train().history
        assert trainer._compiled is False  # curriculum => define-by-run
        assert np.isfinite(history.loss).all()
        # The decline is a reported, counted fallback, not a silent one.
        reason = "curriculum weights change every epoch"
        assert trainer.cache_info()["disabled"] == reason
        assert counter.value == before + 1


class TestCompiledStepApi:
    def test_cache_info_counters(self, rng):
        w = Tensor(rng.normal(size=(2, 1)), requires_grad=True)

        def fn(a):
            return ((Tensor(a) @ w) ** 2).mean()

        step = compile_step(fn, [w], name="api")
        info = step.cache_info()
        assert info["misses"] == info["hits"] == info["retraces"] == 0
        step(rng.normal(size=(3, 2)))
        step(rng.normal(size=(3, 2)))
        info = step.cache_info()
        assert info["misses"] == 1 and info["hits"] == 1
        assert info["schedule"]["recorded"] > 0
        step.clear()
        assert step.cache_info()["size"] == 0

    def test_obs_counters_published_under_profiling(self, rng):
        from repro import obs

        w = Tensor(rng.normal(size=(2, 1)), requires_grad=True)

        def fn(a):
            return ((Tensor(a) @ w) ** 2).mean()

        step = compile_step(fn, [w], name="obs-test")
        a = rng.normal(size=(3, 2))
        step(a)  # trace outside profiling: no registry traffic
        counter = obs.metrics().counter("autodiff.tape.hits", step="obs-test")
        before = counter.value
        with obs.profile():
            step(a)  # cache hit, published while profiling
        assert counter.value == before + 1

    def test_compiled_step_class_direct_use(self, rng):
        w = Tensor(rng.normal(size=(2, 1)), requires_grad=True)

        def fn(a):
            return ((Tensor(a) @ w) ** 2).mean()

        step = CompiledStep(fn, [w])
        arrays = (rng.normal(size=(4, 2)),)
        _assert_step_matches(step, fn, arrays, [w])


class TestAdamVectorised:
    """Bitwise regression of the in-place Adam against the textbook loop."""

    @staticmethod
    def _reference_step(params, m_list, v_list, lr, betas, eps, wd, t):
        b1, b2 = betas
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for p, m, v in zip(params, m_list, v_list):
            if p.grad is None:
                continue
            g = p.grad
            if wd:
                g = g + wd * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_bitwise_vs_reference(self, rng, wd):
        shapes = [(3, 4), (7,), (1, 1), ()]
        init = [rng.normal(size=s) for s in shapes]
        actual = [Tensor(a.copy(), requires_grad=True) for a in init]
        expect = [Tensor(a.copy(), requires_grad=True) for a in init]
        opt = Adam(actual, lr=2e-3, weight_decay=wd)
        m_ref = [np.zeros_like(p.data) for p in expect]
        v_ref = [np.zeros_like(p.data) for p in expect]
        for step_i in range(1, 31):
            for i, (a, b) in enumerate(zip(actual, expect)):
                if step_i % 7 == 3 and i == 1:
                    a.grad = None
                    b.grad = None
                else:
                    g = rng.normal(size=a.data.shape)
                    a.grad = g.copy()
                    b.grad = g.copy()
            opt.step()
            self._reference_step(
                expect, m_ref, v_ref, opt.lr, (opt.beta1, opt.beta2),
                opt.eps, wd, step_i,
            )
            for a, b in zip(actual, expect):
                assert np.array_equal(a.data, b.data)
        for m, mr in zip(opt._m, m_ref):
            assert np.array_equal(m, mr)
        for v, vr in zip(opt._v, v_ref):
            assert np.array_equal(v, vr)

    def test_step_allocates_nothing_per_parameter(self, rng):
        """The update writes only into persistent buffers and p.data."""
        p = Tensor(rng.normal(size=(16, 16)), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        p.grad = rng.normal(size=(16, 16))
        data_before = p.data
        opt.step()
        assert p.data is data_before  # updated in place, not rebound


class TestTensorSatellites:
    def test_backward_hook_is_thread_local(self):
        seen_main, seen_worker = [], []

        def run(seen, tag):
            def hook(node, vjp, ct):
                seen.append(tag)
                return vjp(ct)

            tensor_mod.set_backward_hook(hook)
            try:
                x = Tensor(np.ones(3), requires_grad=True)
                backward((x * x).sum(), [x])
            finally:
                tensor_mod.set_backward_hook(None)

        worker = threading.Thread(target=run, args=(seen_worker, "w"))
        run(seen_main, "m")
        worker.start()
        worker.join()
        assert seen_main and set(seen_main) == {"m"}
        assert seen_worker and set(seen_worker) == {"w"}

        # A hook installed on this thread must not fire on another thread.
        tensor_mod.set_backward_hook(
            lambda node, vjp, ct: (_ for _ in ()).throw(AssertionError)
        )
        try:
            errors = []

            def clean_run():
                try:
                    x = Tensor(np.ones(2), requires_grad=True)
                    backward((x * x).sum(), [x])
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            t = threading.Thread(target=clean_run)
            t.start()
            t.join()
            assert not errors
        finally:
            tensor_mod.set_backward_hook(None)

    def test_float_ndarray_fast_path_no_copy(self):
        arr64 = np.zeros(4)
        arr32 = np.zeros(4, dtype=np.float32)
        assert Tensor(arr64).data is arr64
        assert Tensor(arr32).data is arr32

    def test_int_and_list_inputs_still_converted(self):
        assert Tensor(np.arange(3)).data.dtype == np.float64
        assert Tensor([1, 2, 3]).data.dtype == np.float64

    def test_zero_grad_clears_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        x.grad = np.ones(2)
        x.zero_grad()
        assert x.grad is None


# ----------------------------------------------------------------------
# Forward-only inference replay (compile_forward)
# ----------------------------------------------------------------------

def _mlp_forward(params):
    def fwd(a):
        return _mlp(params, ad.as_tensor(a))

    return fwd


class TestForwardOnly:
    """compile_forward: no backward planes, no grad buffers, wider op set."""

    def test_trace_forward_only_drops_backward(self, rng):
        params = _mlp_params(rng)
        arrays = (rng.normal(size=(6, 3)),)
        tape, result = trace(_mlp_forward(params), arrays, params,
                             forward_only=True)
        assert tape.forward_only
        assert tape.grad_refs == []
        # replay carries the forward output but no gradients
        executor = tape.compile()
        out, grads, _aux = executor.replay(arrays)
        assert grads == []
        assert np.shape(out) == np.shape(result[0])

    def test_steady_replay_allocates_no_grad_buffers(self, rng):
        """Steady-state forward-only replay never allocates gradient (or
        any other per-parameter-sized) buffers: total allocations across
        many replays stay below the size of a single grad buffer."""
        params = _mlp_params(rng, sizes=(64, 128, 1))
        cf = compile_forward(_mlp_forward(params), name="tm")
        x = rng.uniform(-1.0, 1.0, size=(32, 64))
        for _ in range(6):  # trace, validated replay, steady replays
            cf(x)
        assert cf.disabled is None
        grad_buffer_bytes = params[0].data.nbytes  # (64, 128) float64
        tracemalloc.start()
        for _ in range(20):
            cf(x)
        _cur, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < grad_buffer_bytes

    @pytest.mark.parametrize("op_name,op", [
        ("relu", lambda t: ad.relu(t)),
        ("clip", lambda t: ad.clip(t, -0.5, 0.5)),
        ("absolute", lambda t: ad.absolute(t)),
        ("amax", lambda t: ad.amax(t, axis=1, keepdims=True) * t),
        ("amin", lambda t: ad.amin(t, axis=1, keepdims=True) + t),
        ("maximum", lambda t: ad.maximum(t, 0.25)),
        ("minimum", lambda t: ad.minimum(t, 0.25)),
        ("where", lambda t: ad.where(ad.sign(t), t, t * 0.1)),
    ])
    def test_data_dependent_ops_replay_forward_only(self, rng, op_name, op):
        """Ops whose VJPs freeze masks are fine forward-only: the replay
        kernels recompute the mask from each call's fresh inputs."""
        cf = compile_forward(lambda a: op(ad.as_tensor(a)), name=op_name)
        x = rng.uniform(-1.0, 1.0, size=(16, 8))
        with ad.no_grad():
            ref = op(ad.as_tensor(x)).data
        for _ in range(5):
            assert np.array_equal(cf(x), ref)
        assert cf.disabled is None
        # fresh inputs -> fresh masks, not the traced ones
        x2 = rng.uniform(-1.0, 1.0, size=(16, 8))
        with ad.no_grad():
            ref2 = op(ad.as_tensor(x2)).data
        assert np.array_equal(cf(x2), ref2)

    def test_data_dependent_op_still_falls_back_in_training(self, rng):
        """The same op that replays forward-only keeps tripping the
        training-trace fallback (its VJP captures the mask)."""
        w = Tensor(rng.normal(size=(8, 1)), requires_grad=True)

        def fn(a):
            return (ad.relu(Tensor(a)) @ w).mean()

        step = compile_step(fn, [w])
        arrays = (rng.normal(size=(4, 8)),)
        _assert_step_matches(step, fn, arrays, [w])
        assert "data-dependent" in step.disabled

    def test_input_independent_forward_falls_back(self, rng):
        """A forward that never touches its traced input (e.g. stale op
        references bypassing the trace shims) must not be frozen — the
        replay would serve the traced answer as a constant forever."""
        const = Tensor(rng.normal(size=(4, 2)))

        def fn(a):  # ignores its input entirely
            return ad.tanh(const) * 2.0

        cf = compile_forward(fn, name="constfold")
        x = rng.normal(size=(4, 2))
        out = cf(x)
        assert "does not depend" in cf.disabled
        with ad.no_grad():
            assert np.array_equal(out, (ad.tanh(const) * 2.0).data)


# ----------------------------------------------------------------------
# Row-stable kernels (batch-invariant serving replay)
# ----------------------------------------------------------------------

class TestRowStableKernels:
    """Per-row results must not depend on the batch they ride in."""

    @pytest.mark.parametrize("n", [1, 3, 7, 31, 32, 33, 64, 100])
    def test_matmul_rows_invariant_across_batch_sizes(self, rng, n):
        a = rng.normal(size=(n, 24))
        b = rng.normal(size=(24, 3))
        batched = _k_matmul_rowstable(a, b)
        for i in range(0, n, max(1, n // 7)):
            alone = _k_matmul_rowstable(a[i:i + 1], b)
            assert np.array_equal(batched[i], alone[0])
        assert np.allclose(batched, a @ b, rtol=0, atol=1e-12)

    def test_matmul_out_param_and_non2d_passthrough(self, rng):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 2))
        out = np.empty((5, 2))
        assert _k_matmul_rowstable(a, b, out=out) is out
        assert np.array_equal(out, _k_matmul_rowstable(a, b))
        # stacked operands already have batch-independent GEMM shapes
        a3 = rng.normal(size=(3, 2, 2))
        b3 = rng.normal(size=(3, 2, 2))
        assert np.array_equal(_k_matmul_rowstable(a3, b3),
                              np.matmul(a3, b3))

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_tensor_sum_rows_invariant_across_batch_sizes(self, rng, n):
        a = rng.normal(size=(n, 2, 2, 2))
        batched = _k_tensor_sum_rowstable(a, axis=(1, 2, 3))
        for i in range(n):
            alone = _k_tensor_sum_rowstable(a[i:i + 1], axis=(1, 2, 3))
            assert batched[i] == alone[0]
        assert np.allclose(batched, a.sum(axis=(1, 2, 3)),
                           rtol=0, atol=1e-12)

    def test_tensor_sum_keepdims_and_axis0_passthrough(self, rng):
        a = rng.normal(size=(4, 3, 2))
        kept = _k_tensor_sum_rowstable(a, axis=(1, 2), keepdims=True)
        assert kept.shape == (4, 1, 1)
        assert np.array_equal(
            kept.ravel(), _k_tensor_sum_rowstable(a, axis=(1, 2)))
        # reductions over axis 0 mix rows by definition: plain sum
        assert np.array_equal(_k_tensor_sum_rowstable(a, axis=0),
                              a.sum(axis=0))
        assert np.array_equal(_k_tensor_sum_rowstable(a, axis=None),
                              a.sum())

    def test_compiled_forward_rows_batch_invariant(self, rng):
        """End to end: a row predicted alone is bitwise the row predicted
        inside any batch — the micro-batching server's contract."""
        params = _mlp_params(rng, sizes=(3, 16, 1))
        cf = compile_forward(_mlp_forward(params), name="rowstable")
        x = rng.uniform(-1.0, 1.0, size=(37, 3))
        for _ in range(4):
            batched = cf(x)
        batched = np.array(batched, copy=True)
        for i in [0, 5, 17, 36]:
            row = np.ascontiguousarray(x[i:i + 1])
            for _ in range(4):
                alone = cf(row)
            assert np.array_equal(batched[i], alone[0])
        assert cf.disabled is None
