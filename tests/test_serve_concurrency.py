"""Thread-safety regression tests for the caches the serving path shares.

Every cache a concurrent server leans on — the TorQ plan cache (with
pinning), the lowered-plan LRU, the zero-state basis cache, and compiled
tape executors — is hammered from many threads.
The contract under contention: no exceptions, no torn state, identical
results from every thread, and pinned plans surviving eviction
pressure.
"""

import threading

import numpy as np
import pytest

from repro import autodiff as ad
from repro.autodiff import Tensor
from repro.autodiff.tape import compile_forward, compile_step
from repro.lower import clear_lowered_cache, lower_plan, lowered_cache_info
from repro.torq import clear_plan_cache, compile_gates, make_ansatz
from repro.torq.compile import pin_plan, plan_cache_info, unpin_plan
from repro.torq.state import zero_cache_info, zero_state

N_THREADS = 8


def _hammer(fn, n_threads=N_THREADS, reps=20):
    """Run ``fn(thread_idx, rep)`` from every thread; re-raise failures."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def work(t):
        try:
            barrier.wait(timeout=30)
            for r in range(reps):
                fn(t, r)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append((t, exc))

    threads = [threading.Thread(target=work, args=(t,))
               for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not errors, errors


def _any_gates(n_qubits, n_layers=1):
    return tuple(make_ansatz("basic_entangling", n_qubits=n_qubits,
                             n_layers=n_layers).gate_sequence())


def test_plan_cache_concurrent_compile_shares_plans():
    clear_plan_cache()
    plans = [[None] * 4 for _ in range(N_THREADS)]

    def work(t, r):
        q = 2 + (r % 4)
        plans[t][r % 4] = compile_gates(_any_gates(q), q)

    _hammer(work)
    # Every thread got the same cached object per structure.
    for i in range(4):
        first = plans[0][i]
        assert first is not None
        assert all(p is first for p in (row[i] for row in plans))


def test_plan_cache_pins_survive_eviction_pressure():
    clear_plan_cache()
    gates = _any_gates(3)
    pinned = pin_plan(gates, 3)
    assert plan_cache_info()["pinned"] == 1

    def churn(t, r):
        # Distinct structures per (thread, rep) to force evictions.
        q = 2 + ((t * 131 + r) % 5)
        layers = 1 + ((t + r) % 3)
        compile_gates(_any_gates(q, layers), q)

    _hammer(churn, reps=30)
    # The pinned plan is still the cached object.
    assert compile_gates(gates, 3) is pinned
    assert unpin_plan(gates, 3)
    assert plan_cache_info()["pinned"] == 0
    clear_plan_cache()


def test_lowered_cache_concurrent():
    clear_plan_cache()
    clear_lowered_cache()
    lowered = [[None] * 3 for _ in range(N_THREADS)]

    def work(t, r):
        q = 2 + (r % 3)
        lowered[t][r % 3] = lower_plan(_any_gates(q), q)

    _hammer(work)
    for i in range(3):
        first = lowered[0][i]
        assert all(lp is first for lp in (row[i] for row in lowered))
    assert lowered_cache_info()["size"] == 3
    clear_lowered_cache()


def test_zero_state_cache_concurrent():
    outs = []
    lock = threading.Lock()

    def work(t, r):
        st = zero_state(4, 3)
        re = st.tensor.re.data
        assert re[0, 0, 0, 0] == 1.0 and not re.flags.writeable
        with lock:
            outs.append(re)

    _hammer(work)
    info = zero_cache_info()
    assert info["size"] <= info["capacity"]


def test_compiled_step_concurrent_replay():
    w = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3) / 10,
               requires_grad=True)

    def loss_fn(x):
        return ad.tensor_sum(ad.tanh(ad.matmul(ad.as_tensor(x), w)))

    step = compile_step(loss_fn, [w])
    rng = np.random.default_rng(0)
    xs = [rng.uniform(-1, 1, size=(5, 2)) for _ in range(4)]
    expected = []
    for x in xs:  # also triggers trace+validate
        loss, grads, _aux = step(x)
        expected.append((loss, [np.array(g, copy=True) for g in grads]))
    results = [[None] * 4 for _ in range(N_THREADS)]

    def work(t, r):
        i = r % 4
        loss, grads, _aux = step(xs[i])
        results[t][i] = (loss, [g.copy() for g in grads])

    _hammer(work)
    for i in range(4):
        loss0, grads0 = expected[i][0], expected[i][1]
        for row in results:
            assert row[i][0] == loss0
            assert all(np.array_equal(a, b)
                       for a, b in zip(row[i][1], grads0))


def test_compiled_forward_concurrent_replay():
    model_w = np.linspace(-1, 1, 12).reshape(3, 4)

    def fwd(x):
        return ad.tanh(ad.matmul(ad.as_tensor(x), ad.as_tensor(model_w)))

    cf = compile_forward(fwd, name="conc")
    rng = np.random.default_rng(1)
    # Distinct batch sizes: one cached executor per input structure.
    xs = [rng.uniform(-1, 1, size=(n, 3)) for n in (4, 6, 9)]
    expected = []
    for x in xs:
        for _ in range(4):  # trace, validate, codegen-check, steady
            out = cf(x)
        expected.append(np.array(out, copy=True))

    def work(t, r):
        i = r % 3
        assert np.array_equal(cf(xs[i]), expected[i])

    _hammer(work)
    info = cf.cache_info()
    assert info["disabled"] is None
    assert info["size"] == 3


def test_frozen_model_concurrent_predict():
    from repro.pde.model import GenericPINN
    from repro.serve.bundle import _resolve_type_for
    from repro.serve.frozen import FrozenModel

    model = GenericPINN(2, 1, hidden=8, n_hidden=2,
                        quantum="strongly_entangling", n_qubits=3,
                        n_layers=1, rng=np.random.default_rng(0))
    mtype = _resolve_type_for(model)
    frozen = FrozenModel(model, model_type=mtype,
                         spec=mtype.describe(model), min_batch=2,
                         max_batch=8)
    frozen.warmup()
    rng = np.random.default_rng(2)
    reqs = [rng.uniform(-1, 1, size=(1 + r % 5, 2)) for r in range(5)]
    expected = [frozen.predict(r) for r in reqs]

    def work(t, r):
        i = r % 5
        assert np.array_equal(frozen.predict(reqs[i]), expected[i])

    _hammer(work)
    frozen.unpin()
