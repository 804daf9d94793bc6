"""Async micro-batching server tests: coalescing parity, deadlines, drain.

The central property: any interleaving of concurrent requests yields,
per request, *bitwise* the same answer (at float64) as replaying that
request alone.  Batching is a throughput optimisation, never an
accuracy trade.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serve
from repro.pde.model import GenericPINN
from repro.serve.bundle import _resolve_type_for
from repro.serve.frozen import FrozenModel


def _make_frozen(max_batch=32, quantum="strongly_entangling"):
    model = GenericPINN(2, 1, hidden=10, n_hidden=2, quantum=quantum,
                        n_qubits=3, n_layers=1,
                        rng=np.random.default_rng(0))
    mtype = _resolve_type_for(model)
    frozen = FrozenModel(model, model_type=mtype,
                         spec=mtype.describe(model), min_batch=1,
                         max_batch=max_batch)
    frozen.warmup()
    return frozen


@pytest.fixture(scope="module")
def frozen():
    fm = _make_frozen()
    yield fm
    fm.unpin()


def _requests(sizes, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, size=(n, 2)) for n in sizes]


def _serve_all(frozen, requests, policy=None, timeouts=None):
    async def run():
        async with serve.Server(frozen, policy) as srv:
            return await asyncio.gather(*[
                srv.predict(r, timeout=(timeouts[i] if timeouts else None))
                for i, r in enumerate(requests)
            ], return_exceptions=True)

    return asyncio.run(run())


# ----------------------------------------------------------------------
# Coalescing parity
# ----------------------------------------------------------------------

def test_concurrent_equals_isolated_bitwise(frozen):
    requests = _requests([1, 3, 5, 17, 32, 2, 9])
    outs = _serve_all(frozen, requests)
    for req, out in zip(requests, outs):
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, frozen.predict(req))


def test_ragged_final_batch(frozen):
    # 7 single-point requests against max_batch_points=3: batches of
    # 3/3/1, the last one ragged.
    policy = serve.BatchPolicy(max_batch_points=3, max_wait_us=200)
    requests = _requests([1] * 7)
    outs = _serve_all(frozen, requests, policy)
    for req, out in zip(requests, outs):
        assert np.array_equal(out, frozen.predict(req))


def test_oversized_request_still_served(frozen):
    # Request bigger than both the policy and the model's max_batch:
    # dispatched alone, chunked inside FrozenModel.
    policy = serve.BatchPolicy(max_batch_points=8)
    requests = _requests([50, 2])
    outs = _serve_all(frozen, requests, policy)
    for req, out in zip(requests, outs):
        assert np.array_equal(out, frozen.predict(req))


@settings(max_examples=10, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                   max_size=12),
    max_points=st.integers(min_value=1, max_value=16),
    wait_us=st.sampled_from([0, 100, 2000]),
)
def test_property_any_interleaving_is_exact(sizes, max_points, wait_us):
    """Hypothesis: every (sizes, policy) interleaving is per-request exact."""
    frozen = test_property_any_interleaving_is_exact._frozen
    policy = serve.BatchPolicy(max_batch_points=max_points,
                               max_wait_us=wait_us)
    requests = _requests(sizes, seed=sum(sizes))
    outs = _serve_all(frozen, requests, policy)
    for req, out in zip(requests, outs):
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, frozen.predict(req))


# One warmed model for every hypothesis example (module fixture scoping
# does not apply inside @given).
test_property_any_interleaving_is_exact._frozen = None


def setup_module(module):
    module.test_property_any_interleaving_is_exact._frozen = _make_frozen()


def teardown_module(module):
    fm = module.test_property_any_interleaving_is_exact._frozen
    if fm is not None:
        fm.unpin()


# ----------------------------------------------------------------------
# Deadlines, overload, lifecycle
# ----------------------------------------------------------------------

def test_deadline_expired_request_times_out(frozen):
    requests = _requests([2, 2, 2])
    outs = _serve_all(frozen, requests, timeouts=[None, 1e-9, None])
    assert isinstance(outs[0], np.ndarray)
    assert isinstance(outs[1], serve.ServeTimeout)
    assert isinstance(outs[2], np.ndarray)
    # survivors are still exact
    assert np.array_equal(outs[0], frozen.predict(requests[0]))
    assert np.array_equal(outs[2], frozen.predict(requests[2]))


def test_overload_reject(frozen):
    policy = serve.BatchPolicy(max_queue=1, overload="reject",
                               max_wait_us=50_000, max_batch_points=1)

    async def run():
        async with serve.Server(frozen, policy) as srv:
            # Burst-submit without yielding: the queue (size 1) cannot
            # drain between puts, so at least one must be rejected.
            results = await asyncio.gather(*[
                srv.predict(np.zeros((1, 2))) for _ in range(16)
            ], return_exceptions=True)
            return results

    results = asyncio.run(run())
    assert any(isinstance(r, serve.ServeOverload) for r in results)


def test_closed_server_raises(frozen):
    async def run():
        srv = serve.Server(frozen)
        with pytest.raises(serve.ServerClosed):
            await srv.predict(np.zeros((1, 2)))
        await srv.start()
        await srv.stop()
        with pytest.raises(serve.ServerClosed):
            await srv.predict(np.zeros((1, 2)))

    asyncio.run(run())


def test_graceful_drain_completes_queued_work(frozen):
    async def run():
        srv = serve.Server(
            frozen, serve.BatchPolicy(max_batch_points=2, max_wait_us=0))
        await srv.start()
        futs = [asyncio.ensure_future(srv.predict(np.full((1, 2), 0.1 * i)))
                for i in range(10)]
        await asyncio.sleep(0)  # let every predict() enqueue
        await srv.stop(drain=True)
        return await asyncio.gather(*futs)

    outs = asyncio.run(run())
    assert len(outs) == 10
    for i, out in enumerate(outs):
        assert np.array_equal(out, frozen.predict(np.full((1, 2), 0.1 * i)))


def test_bad_input_shape_rejected(frozen):
    async def run():
        async with serve.Server(frozen) as srv:
            with pytest.raises(ValueError, match="expects"):
                await srv.predict(np.zeros((2, 5)))

    asyncio.run(run())


def test_metrics_snapshot(frozen):
    requests = _requests([1, 2, 3, 4])
    policy = serve.BatchPolicy(max_batch_points=10, max_wait_us=2000)

    async def run():
        async with serve.Server(frozen, policy) as srv:
            await asyncio.gather(*[srv.predict(r) for r in requests])
            return srv.metrics_snapshot()

    snap = asyncio.run(run())
    assert snap["requests"] == 4
    assert snap["completed"] == 4
    assert snap["batches"] >= 1
    assert snap["coalesce_ratio"] >= 1.0
    assert snap["latency_p99_ms"] >= snap["latency_p50_ms"] >= 0.0


def test_serve_stats_aggregates(frozen):
    stats = serve.stats()
    assert set(stats) == {"plan_cache", "lowered_cache", "zero_state_cache",
                          "frozen_models", "arena_bytes"}
    assert stats["plan_cache"]["pinned"] >= 1  # frozen fixture pinned one
    assert any(m["model_type"] == "generic_pinn"
               for m in stats["frozen_models"])
    assert stats["arena_bytes"] > 0
