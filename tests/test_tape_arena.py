"""Tape replay runs in one liveness-planned ``lower.memplan`` arena.

* A warm float64 serving tier holds its arenas and the folded constants
  its schedules read, nothing else: no generated replay function keeps
  an op output past a replay or a folded intermediate past compilation,
  and the reported ``arena_bytes`` and ``folded_bytes`` are the real
  footprint.
* The replay that ``compile_step`` and ``compile_forward`` validate
  against define-by-run already runs in the arena, so a wrong plan is
  caught on that replay and never served.
* Tape arenas are counted under ``lower.arena.bytes{executor="tape"}``,
  apart from the lowered tier's.
"""

import numpy as np
import pytest

from repro import serve
from repro import autodiff as ad
from repro.autodiff import Tensor, backward, no_grad
from repro.autodiff.tape import compile_forward, compile_step
from repro.lower import memplan


def _frozen_qpinn(tmp_path, max_batch: int):
    from repro.core.models import MaxwellQPINN

    path = tmp_path / "qpinn.rqb"
    serve.freeze_model(MaxwellQPINN(rng=np.random.default_rng(0)), path,
                       precision="float64")
    return serve.load_bundle(path, min_batch=1, max_batch=max_batch)


def _stray(ex) -> list:
    """Arrays and tensors the generated replay function's namespace
    holds between replays beyond arena views, folded values, the
    schedule's scalar literal operands and the leaf tensors it reads
    live."""
    kept = [b for b in ex._bufs if b is not None]
    kept += [value for _slot, value in ex._value_binds]
    stray = []
    for value in ex._replay.__globals__.values():
        if isinstance(value, Tensor):
            if value._parents:
                stray.append(value)
        elif isinstance(value, np.ndarray):
            if value.ndim and not any(value is k for k in kept):
                stray.append(value)
    return stray


def test_warm_float64_tier_holds_only_its_arenas(tmp_path):
    frozen = _frozen_qpinn(tmp_path, max_batch=256)
    assert frozen.warmup() == (1, 2, 4, 8, 16, 32, 64, 128, 256)
    executors = list(frozen._compiled._cache.values())
    assert len(executors) == 9
    for ex in executors:
        # Every op output (and every per-replay input/parameter read) is
        # a local of the generated function, gone when it returns.
        assert ex._replay.__code__.co_filename == "<tape-codegen>"
        assert _stray(ex) == []
        assert ex.stats["arena_bytes"] <= ex.stats["unplanned_bytes"] / 2
    info = frozen.cache_info()
    assert info["tape"]["disabled"] is None
    assert info["arena_bytes"] == sum(ex.buffer_bytes() for ex in executors)
    assert info["arena_bytes"] <= 4_000_000  # measured 2.9 MB
    # One folded 128×256 transfer matrix per bucket (2.36 MB for nine),
    # not the plan intermediates it folded from.
    assert info["folded_bytes"] == info["tape"]["folded_bytes"]
    assert info["folded_bytes"] <= 3_000_000


def test_a_folded_chain_keeps_only_the_value_it_folds_to():
    """A forward whose parameter-only chain folds to one matrix keeps
    that matrix, not the chain's intermediates."""
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=(6, 4)))  # frozen weights: constants

    def fn(a):
        return Tensor(a) @ ad.tanh(ad.sin(w) * 2.0 + 1.0)

    forward = compile_forward(fn, name="folded-chain")
    a = rng.normal(size=(5, 6))
    for _ in range(3):
        out = forward(a)
    assert forward.disabled is None
    (ex,) = forward._cache.values()
    assert ex.stats["folded"] == 4  # sin, mul, add, tanh
    (held,) = [value for _slot, value in ex._value_binds]
    matrix = np.tanh(np.sin(w.data) * 2.0 + 1.0)
    assert np.array_equal(held, matrix)
    # The generated function holds the folded matrix and its arena, not
    # the chain's intermediates or the weight the chain folded from.
    namespace = ex._replay.__globals__.values()
    arena = [b for b in ex._bufs if b is not None]
    arrays = [v for v in namespace if isinstance(v, np.ndarray)
              and not any(v is b for b in arena)]
    assert len(arrays) == 1 and arrays[0] is held
    assert not any(isinstance(v, Tensor) for v in namespace)
    assert ex.stats["folded_bytes"] == matrix.nbytes
    assert forward.cache_info()["folded_bytes"] == matrix.nbytes
    np.testing.assert_allclose(out, a @ matrix, rtol=1e-14)


def _one_slot_plan(specs):
    """A wrong plan: every buffer shares slot 0, live ranges ignored."""
    cap = max((s.nbytes for s in specs), default=0)
    return memplan.MemoryPlan(list(specs), [cap], {s.name: 0 for s in specs})


def test_wrong_plan_is_caught_by_the_validated_forward(tmp_path, monkeypatch):
    monkeypatch.setattr(memplan, "plan_buffers", _one_slot_plan)
    frozen = _frozen_qpinn(tmp_path, max_batch=8)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, size=(8, frozen.in_dim))
    with no_grad():
        expected = frozen._forward(x).data
    for _ in range(3):  # trace, validated replay, define-by-run fallback
        assert np.array_equal(frozen.predict(x), expected)
    assert (frozen._compiled.disabled
            == "forward replay mismatch vs define-by-run")


def test_wrong_plan_is_caught_by_the_validated_step(monkeypatch):
    monkeypatch.setattr(memplan, "plan_buffers", _one_slot_plan)
    rng = np.random.default_rng(2)
    w1 = Tensor(rng.normal(size=(3, 16)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(16, 1)), requires_grad=True)
    params = [w1, w2]

    def fn(a):
        return ((ad.tanh(Tensor(a) @ w1) @ w2) ** 2).mean()

    a = rng.normal(size=(32, 3))
    for p in params:
        p.grad = None
    loss = fn(a)
    backward(loss, params)
    expected = (float(loss.data), [p.grad.copy() for p in params])

    step = compile_step(fn, params, name="wrong-plan")
    for _ in range(3):  # trace, validated replay, define-by-run fallback
        got_loss, grads, _aux = step(a)
        assert got_loss == expected[0]
        for g, e in zip(grads, expected[1]):
            assert np.array_equal(g, e)
    assert step.disabled == "replay mismatch vs define-by-run"


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_arena_views_mirror_traced_layouts(precision):
    """Buffers keep the traced strides (BLAS and reduction bits read
    them) at the tier dtype, and outputs stay live to the end."""
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def fn(a):
        t = Tensor(a).transpose() @ w        # (6, 5)
        u = ad.sin(t.transpose() * 2.0)      # ufunc on a transposed view
        return (u * u).sum(axis=1).mean(), {"u": u}

    step = compile_step(fn, [w], name="layouts", precision=precision)
    a = rng.normal(size=(4, 6))
    for _ in range(3):
        step(a)
    assert step.disabled is None
    (ex,) = step._cache.values()
    tier = np.float64 if precision == "float64" else np.float32
    bufs = [buf for buf in ex._bufs if buf is not None]
    assert all(buf.dtype == tier for buf in bufs)
    # ``t.transpose() * 2.0`` is column-major in define-by-run; so is
    # its replay buffer.
    assert any(buf.flags.f_contiguous and not buf.flags.c_contiguous
               for buf in bufs)
    _loss, _grads, aux = step(a)
    with no_grad():
        ref = np.sin((a.T @ w.data).T * 2.0)
    assert aux["u"].shape == ref.shape
    if precision == "float64":
        assert np.array_equal(aux["u"], ref)


def test_tape_arenas_are_counted_apart_from_the_lowered_tier():
    from repro import obs

    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    step = compile_step(lambda a: ((Tensor(a) @ w) ** 2).mean(), [w],
                        name="arena-counter")
    tape_bytes = obs.metrics().counter("lower.arena.bytes", executor="tape")
    lowered = obs.metrics().counter("lower.arena.bytes", executor="lowered")
    before = (tape_bytes.value, lowered.value)
    with obs.profile():
        step(rng.normal(size=(5, 3)))  # trace + compile: plans the arena
    (ex,) = step._cache.values()
    assert ex.buffer_bytes() > 0
    assert tape_bytes.value == before[0] + ex.buffer_bytes()
    assert lowered.value == before[1]
