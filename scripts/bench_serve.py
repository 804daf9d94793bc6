#!/usr/bin/env python
"""Inference serving load benchmark for ``repro.serve`` — emits
``BENCH_serve.json``.

Three phases per model config, honestly separated:

* **sequential baseline** — the warmed FrozenModel answers requests one
  at a time (each request replayed alone, no batching, no padding
  beyond its own bucket); QPS extrapolated from a timed sample.
* **batched capacity** — the same FrozenModel behind the async
  micro-batching :class:`repro.serve.Server`; every simulated client
  submits concurrently (open loop, queue bounded with backpressure) and
  sustained QPS is completed requests over wall time.  The headline
  number is ``batched_qps / sequential_qps``.
* **latency under load** — open-loop Poisson arrivals at ~70% of the
  measured batched capacity; p50/p99/p99.9 from the server's latency
  reservoir (enqueue → scatter, the client-visible time).

Configs: the paper's MaxwellQPINN (7 qubits, float64 forward-only tape
replay — batched answers are *bitwise* equal to sequential ones) and a
12-qubit QuantumLayer on the float32 lowered planned tier (answers
within the documented expectation budget).  ``--toy`` swaps in a small
GenericPINN for CI smoke; ``--check-parity`` additionally asserts the
coalescing contract (batched == isolated, bitwise at float64), the
freeze→load round trip, deadline handling, and that every warm float64
tape executor's arena is at most half its unplanned per-buffer total,
and fails the run on any violation.

Usage::

    python scripts/bench_serve.py                      # full configs
    python scripts/bench_serve.py --toy --check-parity # CI smoke

A ``--toy`` run without ``--out`` writes ``.bench_tmp/BENCH_serve.toy.json``
(gitignored), so smoke runs never overwrite the committed full-size
report.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs, serve  # noqa: E402


def build_paper_model(rng):
    from repro.core.models import MaxwellQPINN

    return MaxwellQPINN(rng=rng)


def build_q12_model(rng):
    from repro.torq.layer import QuantumLayer

    return QuantumLayer(n_qubits=12, n_layers=4, rng=rng)


def build_toy_model(rng):
    from repro.pde.model import GenericPINN

    return GenericPINN(2, 1, hidden=16, n_hidden=2,
                       quantum="strongly_entangling", n_qubits=4,
                       n_layers=2, rng=rng)


FULL_CONFIGS = [
    {"name": "paper_maxwell_qpinn_7q", "build": build_paper_model,
     "precision": "float64", "max_batch_points": 256, "n_requests": 10_000,
     "seq_sample": 500},
    {"name": "quantum_layer_12q_f32", "build": build_q12_model,
     "precision": "float32", "max_batch_points": 256, "n_requests": 2_000,
     "seq_sample": 100},
]

TOY_CONFIGS = [
    {"name": "toy_generic_pinn_4q", "build": build_toy_model,
     "precision": "float64", "max_batch_points": 64, "n_requests": 300,
     "seq_sample": 100},
]


def make_frozen(cfg, tmpdir) -> tuple:
    """Freeze → load → warmup; returns (frozen, bundle_path)."""
    rng = np.random.default_rng(0)
    model = cfg["build"](rng)
    path = Path(tmpdir) / f"{cfg['name']}.rqb"
    serve.freeze_model(model, path, precision=cfg["precision"])
    frozen = serve.load_bundle(
        path, min_batch=1, max_batch=cfg["max_batch_points"]
    )
    t0 = time.perf_counter()
    frozen.warmup()
    return frozen, path, time.perf_counter() - t0


def request_stream(frozen, n: int) -> list:
    """Deterministic single-point requests in the model's input domain."""
    rng = np.random.default_rng(42)
    return [rng.uniform(-1.0, 1.0, size=(1, frozen.in_dim)) for _ in range(n)]


def bench_sequential(frozen, requests) -> dict:
    for req in requests[:3]:  # touch the bucket before timing
        frozen.predict(req)
    start = time.perf_counter()
    for req in requests:
        frozen.predict(req)
    wall = time.perf_counter() - start
    return {
        "sampled_requests": len(requests),
        "wall_s": wall,
        "qps": len(requests) / wall,
    }


async def _run_clients(server, requests, arrivals=None, timeout=None):
    """Submit every request (optionally at scheduled arrival offsets)."""
    start = time.perf_counter()

    async def client(i, req):
        if arrivals is not None:
            delay = start + arrivals[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        try:
            return await server.predict(req, timeout=timeout)
        except (serve.ServeTimeout, serve.ServeOverload):
            return None

    outs = await asyncio.gather(
        *[client(i, r) for i, r in enumerate(requests)]
    )
    return outs, time.perf_counter() - start


def bench_batched(frozen, cfg, requests) -> tuple[dict, list]:
    policy = serve.BatchPolicy(
        max_batch_points=cfg["max_batch_points"], max_wait_us=1000,
        max_queue=4096, overload="block",
    )

    async def run():
        async with serve.Server(frozen, policy) as srv:
            outs, wall = await _run_clients(srv, requests)
            return outs, wall, srv.metrics_snapshot()

    outs, wall, snap = asyncio.run(run())
    return ({
        "n_requests": len(requests),
        "wall_s": wall,
        "qps": len(requests) / wall,
        "batches": snap["batches"],
        "coalesce_ratio": snap["coalesce_ratio"],
    }, outs)


def bench_latency(frozen, cfg, requests, target_qps: float) -> dict:
    rng = np.random.default_rng(7)
    arrivals = np.cumsum(rng.exponential(1.0 / target_qps,
                                         size=len(requests)))
    policy = serve.BatchPolicy(
        max_batch_points=cfg["max_batch_points"], max_wait_us=1000,
        max_queue=4096, overload="block",
    )

    async def run():
        async with serve.Server(frozen, policy) as srv:
            _outs, wall = await _run_clients(srv, requests,
                                             arrivals=arrivals)
            return wall, srv.metrics_snapshot()

    wall, snap = asyncio.run(run())
    return {
        "target_rate_qps": target_qps,
        "offered_for_s": float(arrivals[-1]),
        "wall_s": wall,
        "p50_ms": snap.get("latency_p50_ms"),
        "p99_ms": snap.get("latency_p99_ms"),
        "p999_ms": snap.get("latency_p999_ms"),
        "mean_ms": snap.get("latency_mean_ms"),
        "coalesce_ratio": snap["coalesce_ratio"],
    }


def check_parity(frozen, cfg, requests, batched_outs) -> dict:
    """The coalescing contract, plus round-trip and deadline checks."""
    checks = {}
    # 1. batched == isolated (bitwise at f64, within budget at f32)
    sample = list(range(0, len(requests), max(1, len(requests) // 64)))
    worst = 0.0
    exact = True
    for i in sample:
        alone = frozen.predict(requests[i])
        if batched_outs[i] is None:
            continue
        if not np.array_equal(alone, batched_outs[i]):
            exact = False
        worst = max(worst, float(np.max(np.abs(alone - batched_outs[i]))))
    if cfg["precision"] == "float64":
        checks["batched_equals_isolated_bitwise"] = exact
        ok = exact
    else:
        from repro.lower.budget import expectation_budget

        budget = expectation_budget(cfg["precision"], frozen.in_dim, 200)
        checks["batched_vs_isolated_maxdiff"] = worst
        checks["within_budget"] = ok = bool(worst <= budget)
    # 2. freeze -> load round trip is bitwise
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "roundtrip.rqb"
        serve.freeze_model(frozen.model, path, precision=cfg["precision"])
        again = serve.load_bundle(path, min_batch=1,
                                  max_batch=cfg["max_batch_points"])
        again.warmup(batch_sizes=[1])
        rt = all(
            np.array_equal(frozen.predict(requests[i]),
                           again.predict(requests[i]))
            for i in sample[:8]
        )
    checks["roundtrip_bitwise"] = rt
    # 3. a 0-second deadline is rejected as ServeTimeout, never served
    async def expired():
        async with serve.Server(frozen) as srv:
            try:
                await srv.predict(requests[0], timeout=1e-9)
            except serve.ServeTimeout:
                return True
            return False

    checks["deadline_enforced"] = asyncio.run(expired())
    # 4. every warm float64 executor replays in a liveness-planned arena
    #    at most half its unplanned one-buffer-per-entry footprint
    if cfg["precision"] == "float64":
        execs = frozen.cache_info()["tape"]["executors"]
        checks["arena_vs_unplanned_bytes"] = [
            [ex["arena_bytes"], ex["unplanned_bytes"]] for ex in execs
        ]
        checks["arena_at_most_half_unplanned"] = bool(execs) and all(
            2 * ex["arena_bytes"] <= ex["unplanned_bytes"] for ex in execs
        )
        ok = ok and checks["arena_at_most_half_unplanned"]
    checks["ok"] = bool(ok and rt and checks["deadline_enforced"])
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--toy", action="store_true",
                        help="tiny config for CI smoke runs")
    parser.add_argument("--check-parity", action="store_true",
                        help="assert batched == isolated answers, bundle "
                             "round trip, deadline handling, and the float64 "
                             "arena footprint")
    parser.add_argument("--out", type=Path, default=None,
                        help="report path (default BENCH_serve.json, or "
                             ".bench_tmp/BENCH_serve.toy.json with --toy)")
    args = parser.parse_args(argv)
    out = args.out or REPO_ROOT / (
        ".bench_tmp/BENCH_serve.toy.json" if args.toy
        else "BENCH_serve.json")
    configs = TOY_CONFIGS if args.toy else FULL_CONFIGS

    results = []
    all_ok = True
    with tempfile.TemporaryDirectory() as tmpdir:
        for cfg in configs:
            print(f"bench_serve: {cfg['name']} ({cfg['precision']})")
            frozen, _path, warmup_s = make_frozen(cfg, tmpdir)
            requests = request_stream(frozen, cfg["n_requests"])
            seq = bench_sequential(frozen, requests[:cfg["seq_sample"]])
            print(f"  sequential: {seq['qps']:9.0f} req/s")
            batched, outs = bench_batched(frozen, cfg, requests)
            speedup = batched["qps"] / seq["qps"]
            print(f"  batched:    {batched['qps']:9.0f} req/s "
                  f"({speedup:.1f}x, coalesce {batched['coalesce_ratio']:.1f})")
            latency = bench_latency(frozen, cfg, requests,
                                    target_qps=0.7 * batched["qps"])
            print(f"  p50 {latency['p50_ms']:.2f} ms, "
                  f"p99 {latency['p99_ms']:.2f} ms, "
                  f"p99.9 {latency['p999_ms']:.2f} ms "
                  f"at {latency['target_rate_qps']:.0f} req/s offered")
            entry = {
                "name": cfg["name"],
                "precision": cfg["precision"],
                "n_requests": cfg["n_requests"],
                "points_per_request": 1,
                "max_batch_points": cfg["max_batch_points"],
                "warmup_s": warmup_s,
                "sequential": seq,
                "batched": batched,
                "speedup_vs_sequential": speedup,
                "latency": latency,
            }
            if args.check_parity:
                entry["parity"] = check_parity(frozen, cfg, requests, outs)
                all_ok &= entry["parity"]["ok"]
                print(f"  parity: {'OK' if entry['parity']['ok'] else 'FAILED'}"
                      f" {entry['parity']}")
            results.append(entry)
            frozen.unpin()

    report = {
        "config_mode": "toy" if args.toy else "full",
        "methodology": {
            "sequential": "warmed FrozenModel, one request per predict, "
                          "QPS from a timed sample",
            "batched": "async Server, open-loop concurrent submit with "
                       "bounded-queue backpressure; QPS = completed/wall",
            "latency": "open-loop Poisson arrivals at 70% of measured "
                       "batched capacity; percentiles over enqueue->"
                       "scatter client-visible latency",
        },
        "environment": obs.environment_info(),
        "serve_stats": serve.stats(),
        "benchmarks": results,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, default=float) + "\n")
    print(f"wrote {out}")
    return 0 if (all_ok or not args.check_parity) else 1


if __name__ == "__main__":
    sys.exit(main())
