"""One trial of one workload, in a fresh interpreter.

``run.py`` starts this file once per trial with a JSON spec as its only
argument and reads one JSON object from the last line of its standard
output.  A trial is either

* ``train`` — one fixed-length ``core.config.run_single`` call, timed
  from ``TrainerConfig.epoch_hook`` timestamps, or
* ``serve`` — build → ``serve.freeze_model`` → ``serve.load_bundle`` →
  ``FrozenModel.warmup``, then a closed-loop phase and an open-loop
  phase against ``serve.Server``.

Between measured steps (after every epoch, between closed-loop windows
and open-loop segments) the trial runs a short :class:`SpeedProbe` while
the program is idle; every time is reported both raw and scaled to the
reference speed (see ``speed.py``).

With ``"traced": true`` the trial also wraps each layer's public
callables (see ``spans.py``) and reports per-layer numbers.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402
from speed import REF_RATE, SpeedProbe, scale  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def new_probe(spec: dict, tracer) -> SpeedProbe:
    probe = SpeedProbe(spec["probe_s"])
    if tracer is not None:
        tracer.wrap(probe, "rate", "harness.probe")
    return probe


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def instrument_training(tracer: Tracer) -> None:
    """Wrap the public callables of every layer the paper epoch crosses."""
    import repro.core.config as config
    import repro.core.losses as losses
    import repro.core.trainer as trainer
    from repro.autodiff.tape import CompiledStep
    from repro.nn.fourier import RandomFourierFeatures
    from repro.nn.layers import Linear
    from repro.nn.periodic import PeriodicSpaceTimeEmbedding
    from repro.optim.adam import Adam
    from repro.solvers.maxwell_ref import MaxwellPadeSolver
    from repro.torq.layer import QuantumLayer

    wrap = tracer.wrap
    wrap(MaxwellPadeSolver, "solve", "solvers.reference")
    wrap(config, "build_model", "core.build")
    wrap(config.CaseConfig, "make_loss", "core.build")
    wrap(config.CaseConfig, "make_grid", "core.build")
    wrap(trainer.Trainer, "__init__", "core.build")
    wrap(PeriodicSpaceTimeEmbedding, "forward", "nn.embed")
    wrap(RandomFourierFeatures, "forward", "nn.embed")
    wrap(Linear, "forward", "nn.trunk")
    wrap(QuantumLayer, "forward", "torq.quantum",
         rows=lambda layer, activations: activations.shape[0])
    wrap(losses, "grad", "autodiff.deriv")
    wrap(trainer, "backward", "autodiff.backward")
    wrap(CompiledStep, "__call__", "autodiff.compiled")
    for fn in ("residual_ampere", "residual_ampere_scaled",
               "residual_faraday_x", "residual_faraday_y", "energy_residual"):
        wrap(losses, fn, "maxwell.residual")
    wrap(losses.MaxwellLoss, "__call__", "core.loss")
    wrap(Adam, "step", "optim.adam")
    wrap(Adam, "zero_grad", "optim.adam")
    wrap(trainer, "l2_relative_error", "core.l2_eval")
    wrap(trainer.Trainer, "_entanglement", "core.entanglement")
    wrap(trainer, "model_bh_indicator", "core.bh")


EPOCH_LAYERS = ("nn.embed", "nn.trunk", "torq.quantum", "autodiff.deriv",
                "autodiff.backward", "autodiff.compiled", "maxwell.residual",
                "core.loss", "optim.adam")


def run_train(spec: dict) -> dict:
    from repro.core.config import RunConfig, run_single
    from repro.core.trainer import TrainerConfig
    from repro.torq.compile import plan_cache_info

    epochs = int(spec["epochs"])
    eval_every = TrainerConfig().eval_every
    traced = bool(spec["traced"])
    tracer = Tracer() if traced else None
    if tracer is not None:
        instrument_training(tracer)
    probe = new_probe(spec, tracer)
    # The traced trial spends its last steady epoch under tracemalloc to
    # size the autodiff graph; that epoch is left out of its timings.
    mem_epoch = epochs - 2 if traced else -1
    # Per epoch: (epoch end, probe end) and the probe's rate.
    marks: list[tuple[float, float]] = []
    rates: list[float] = []
    cache: list[tuple[int, int]] = []
    graph_peak = [0.0]

    def hook(epoch, loss, grad_norm, grad_variance):
        now = time.perf_counter()
        if tracer is not None:
            info = plan_cache_info()
            cache.append((info["hits"], info["misses"]))
        if epoch == mem_epoch:
            graph_peak[0] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        rates.append(probe.rate())
        if epoch == mem_epoch - 1:
            tracemalloc.start()
        marks.append((now, time.perf_counter()))
        return False

    config = RunConfig(
        case=spec["case"], model_kind=spec["model_kind"], scaling="acos",
        use_energy=True, seed=int(spec["seed"]), grid_n=int(spec["grid_n"]),
        epochs=epochs,
    )
    rate0 = probe.rate()
    start = time.perf_counter()
    result = run_single(
        config, trainer_config=TrainerConfig(epochs=epochs, epoch_hook=hook)
    )
    end = time.perf_counter()
    rate_end = probe.rate()
    if tracer is not None:
        tracer.close()

    hist = result.history
    losses = [float(v) for v in hist.loss]
    ok_epochs = sum(1 for v in losses if np.isfinite(v))
    if hist.stop_reason is not None or hist.early_stop_reason is not None:
        ok_epochs = min(ok_epochs, len(losses) - 1)
    failures = []
    if len(losses) != epochs:
        failures.append(f"ran {len(losses)} of {epochs} epochs")
    if not all(np.isfinite(losses)):
        failures.append("non-finite loss")
    if hist.stop_reason is not None:
        failures.append(f"stop_reason: {hist.stop_reason}")
    if len(marks) != epochs:
        failures.append(f"epoch_hook fired {len(marks)} times")

    def is_diag(k):
        return k == epochs - 1 or k % eval_every == 0

    # Epoch k runs from the end of the probe after epoch k-1 to the
    # hook of epoch k; its scale comes from the probes on either side.
    wall = {k: marks[k][0] - marks[k - 1][1] for k in range(1, len(marks))}
    scaled = {k: scale(wall[k], rates[k - 1], rates[k]) for k in wall}
    steady = [k for k in wall if not is_diag(k) and k != mem_epoch]
    diag = [k for k in wall if is_diag(k)]
    finalize = end - marks[-1][1]
    out = {
        "kind": "train",
        "setup_s": scale(marks[0][0] - start, rate0, rates[0]),
        "raw_setup_s": marks[0][0] - start,
        "epoch_s": [scaled[k] for k in steady],
        "raw_epoch_s": [wall[k] for k in steady],
        "diag_epoch_s": [scaled[k] for k in diag],
        "raw_diag_epoch_s": [wall[k] for k in diag],
        "train_s": sum(scaled.values()) + scale(finalize, rates[-1], rate_end),
        "raw_train_s": sum(wall.values()) + finalize,
        "post_setup_epochs": len(wall),
        "probe_rate": _median(probe.rates),
        "attempted": epochs,
        "failed": epochs - ok_epochs,
        "failures": failures,
        "loss_hex": [v.hex() for v in losses],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        out["layers"] = train_layers(tracer, start, end, marks, steady,
                                     cache, graph_peak[0], epochs)
    return out


def train_layers(tracer, start, end, marks, steady, cache, graph_peak_mb,
                 epochs) -> dict:
    """Per-layer numbers of one traced training trial (raw wall seconds)."""
    per_epoch: dict[str, list[float]] = {}
    for k in steady:
        lo, hi = marks[k - 1][1], marks[k][0]
        spans = tracer.between(lo, hi)
        selfs = tracer.self_times(spans)
        counts = tracer.counts(spans)
        rows = tracer.rows(spans)
        values = {f"{name}_s": selfs.get(name, 0.0) for name in EPOCH_LAYERS}
        values["nn.trunk_calls"] = counts.get("nn.trunk", 0)
        values["torq.quantum_rows"] = rows.get("torq.quantum", 0)
        values["torq.plan_cache_hits"] = cache[k][0] - cache[k - 1][0]
        values["torq.plan_cache_misses"] = cache[k][1] - cache[k - 1][1]
        values["unattributed_s"] = (hi - lo) - sum(selfs.values())
        for key, value in values.items():
            per_epoch.setdefault(key, []).append(value)
    layers = {key: _median(vals) for key, vals in per_epoch.items()}

    run_spans = tracer.between(start, end)
    totals = tracer.self_times(run_spans)
    compiled_epochs = sum(
        1 for k in range(len(marks))
        if any(s.name == "autodiff.compiled" for s in tracer.between(
            marks[k - 1][1] if k else start, marks[k][0]))
    )

    def per_call(name):
        return _median([s.end - s.start for s in run_spans if s.name == name])

    layers.update({
        "solvers.reference_s": totals.get("solvers.reference", 0.0),
        "core.build_s": totals.get("core.build", 0.0),
        "core.l2_eval_s": per_call("core.l2_eval"),
        "core.entanglement_s": per_call("core.entanglement"),
        "core.bh_s": per_call("core.bh"),
        "autodiff.compiled_frac": compiled_epochs / max(1, epochs),
        "autodiff.graph_peak_mb": graph_peak_mb,
    })
    wall = end - start
    table = dict(sorted(totals.items(), key=lambda kv: -kv[1]))
    table["unattributed"] = wall - sum(totals.values())
    return {"metrics": layers, "table": table, "table_wall_s": wall}


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def build_serve_model(spec: dict, rng):
    if spec["model"] == "maxwell_qpinn":
        from repro.core.models import MaxwellQPINN

        return MaxwellQPINN(rng=rng)
    from repro.torq.layer import QuantumLayer

    return QuantumLayer(n_qubits=int(spec["n_qubits"]), n_layers=4, rng=rng)


def request_pool(spec: dict, in_dim: int, rng) -> list[np.ndarray]:
    """Seeded request mix: mostly single points, some 16–64-point tiles.

    The number of tiles and their sizes are the same for every seed
    (sizes spread evenly over 16–64), so every seed asks for the same
    rows in total; the seed picks the order and the points.
    """
    size = int(spec["pool"])
    tiles = round(spec["tile_share"] * size)
    rows = np.ones(size, dtype=int)
    rows[:tiles] = np.linspace(16, 64, tiles).round().astype(int)
    return [rng.uniform(-1.0, 1.0, size=(int(n), in_dim))
            for n in rng.permutation(rows)]


def instrument_serve(tracer: Tracer) -> None:
    from repro import serve
    from repro.lower.inplace import PlannedExecution
    from repro.serve.frozen import FrozenModel
    from repro.torq.layer import QuantumLayer

    wrap = tracer.wrap
    wrap(serve, "freeze_model", "serve.bundle")
    wrap(serve, "load_bundle", "serve.bundle")
    wrap(FrozenModel, "warmup", "serve.warmup")
    wrap(FrozenModel, "predict", "serve.predict",
         rows=lambda frozen, points: len(points))
    wrap(QuantumLayer, "forward", "torq.quantum",
         rows=lambda layer, activations: activations.shape[0])
    wrap(PlannedExecution, "__init__", "lower.rebind")


def compile_counters(frozen) -> dict:
    """Counters that must not move once warmup has returned."""
    from repro.torq.compile import plan_cache_info

    info = frozen.cache_info()
    out = {"plan_misses": plan_cache_info()["misses"]}
    tape = info.get("tape")
    if tape is not None:
        out.update(tape_misses=tape["misses"], tape_retraces=tape["retraces"],
                   tape_fallbacks=tape["fallbacks"],
                   tape_disabled=str(tape["disabled"]))
    return out


class Traffic:
    """Closed- and open-loop load from one event loop against one Server.

    Both phases run in short pieces with a speed probe between them,
    taken while no request is in flight.
    """

    def __init__(self, server, pool, sample_every: int, probe: SpeedProbe):
        self.server = server
        self.pool = pool
        self.sample_every = sample_every
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.samples: list[tuple[int, np.ndarray]] = []

    async def _one(self, index: int):
        self.attempted += 1
        try:
            out = await self.server.predict(self.pool[index % len(self.pool)])
        except Exception as exc:  # every raise is a failed request
            self.failed += 1
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            return None
        if index % self.sample_every == 0:
            self.samples.append((index, out))
        return out

    async def closed(self, callers: int, windows: int, window_s: float) -> dict:
        """``callers`` each await their previous reply before sending, for
        ``windows`` windows of ``window_s``.

        Replies arrive in bursts, one per dispatched batch, so a window's
        rate is the replies that arrived inside it over the time from the
        window's start to the last of them.
        """
        nxt = list(range(callers))
        rate = self.probe.rate()
        raw, scaled, spans = [], [], []
        for _ in range(windows):
            begin = time.perf_counter()
            stop = begin + window_s
            done: list[float] = []

            async def caller(i):
                while time.perf_counter() < stop:
                    index = nxt[i]
                    nxt[i] += callers
                    if await self._one(index) is not None:
                        done.append(time.perf_counter())

            await asyncio.gather(*(caller(i) for i in range(callers)))
            spans.append((begin, time.perf_counter()))
            after = self.probe.rate()
            inside = [t for t in done if t <= stop]
            raw.append(len(inside) / (max(inside) - begin) if inside else 0.0)
            scaled.append(raw[-1] * 2.0 * REF_RATE / (rate + after))
            rate = after
        # ``windows``: each window from its start until its last reply.
        return {"raw_rps": raw, "rps": scaled, "windows": spans}

    async def open(self, rate: float, segments: int, segment_s: float, rng,
                   offset: int) -> dict:
        """Poisson arrivals at a fixed absolute ``rate``, in ``segments``
        pieces of ``segment_s``.  Each latency is timed from the request's
        scheduled send time, and kept raw and scaled by its segment's
        probes."""
        loop = asyncio.get_running_loop()
        n = max(1, round(rate * segment_s))
        before = self.probe.rate()
        out = {"latency_s": [], "scaled_latency_s": [], "completed_at": [],
               "lag_s": []}
        for seg in range(segments):
            arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
            latency: list[float] = []
            tasks = []
            begin = time.perf_counter() + 0.002

            async def request(i, due):
                if await self._one(offset + seg * n + i) is not None:
                    now = time.perf_counter()
                    latency.append(now - due)
                    out["completed_at"].append(now)

            for i in range(n):
                due = begin + float(arrivals[i])
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                out["lag_s"].append(time.perf_counter() - due)
                tasks.append(loop.create_task(request(i, due)))
            await asyncio.gather(*tasks)
            after = self.probe.rate()
            out["latency_s"].extend(latency)
            out["scaled_latency_s"].extend(scale(v, before, after) for v in latency)
            before = after
        return out


def run_serve(spec: dict) -> dict:
    from repro import serve
    from repro.torq.compile import plan_cache_info

    traced = bool(spec["traced"])
    tracer = Tracer() if traced else None
    if tracer is not None:
        instrument_serve(tracer)
    probe = new_probe(spec, tracer)
    rng = np.random.default_rng([int(spec["seed"]), 0])
    bundle = Path(spec["tmpdir"]) / "model.rqb"

    rate0 = probe.rate()
    start = time.perf_counter()
    model = build_serve_model(spec, rng)
    serve.freeze_model(model, bundle, precision=spec["precision"])
    frozen = serve.load_bundle(bundle, min_batch=int(spec["min_batch"]),
                               max_batch=int(spec["max_batch"]))
    frozen.warmup()
    setup_end = time.perf_counter()
    setup_s = scale(setup_end - start, rate0, probe.rate())

    pool = request_pool(spec, frozen.in_dim,
                        np.random.default_rng([int(spec["seed"]), 1]))
    after_warmup = compile_counters(frozen)
    info0 = frozen.cache_info()
    plan0 = plan_cache_info()
    policy = serve.BatchPolicy(**spec["policy"])
    traffic = Traffic(None, pool, int(spec["sample_every"]), probe)

    async def drive():
        async with serve.Server(frozen, policy) as server:
            traffic.server = server
            closed = await traffic.closed(
                int(spec["callers"]), int(spec["closed_windows"]),
                float(spec["window_s"]))
            plan_mid = plan_cache_info()
            opened = await traffic.open(
                float(spec["rate"]), int(spec["open_segments"]),
                float(spec["segment_s"]),
                np.random.default_rng([int(spec["seed"]), 2]), offset=1 << 20)
            return closed, opened, plan_mid

    closed, opened, plan_mid = asyncio.run(drive())
    info1 = frozen.cache_info()

    failures = []
    # Coalesced answers against isolated predicts of the same rows.
    worst = 0.0
    exact = True
    for index, out in traffic.samples:
        alone = frozen.predict(pool[index % len(pool)])
        exact &= bool(np.array_equal(alone, out))
        worst = max(worst, float(np.max(np.abs(alone - out))))
    if not traffic.samples:
        failures.append("no sampled answers")
    if spec["precision"] == "float64":
        if not exact:
            failures.append(f"coalesced != isolated at float64 (max diff {worst!r})")
        budget = 0.0
    else:
        from repro.lower.budget import expectation_budget

        budget = expectation_budget(spec["precision"], model.n_qubits,
                                    len(model.embedded_gate_sequence()))
        if not worst <= budget:
            failures.append(f"coalesced vs isolated diff {worst!r} > budget {budget!r}")
    end_counters = compile_counters(frozen)
    if end_counters != after_warmup:
        failures.append(f"compiled after warmup: {after_warmup} -> {end_counters}")
    if tracer is not None:
        tracer.close()

    out = {
        "kind": "serve",
        "setup_s": setup_s,
        "raw_setup_s": setup_end - start,
        "closed_rps": closed["rps"],
        "raw_closed_rps": closed["raw_rps"],
        "open_latency_s": opened["scaled_latency_s"],
        "raw_open_latency_s": opened["latency_s"],
        "lag_s_p99": float(np.percentile(opened["lag_s"], 99)),
        "probe_rate": _median(probe.rates),
        "attempted": traffic.attempted,
        "failed": traffic.failed,
        "errors": traffic.errors,
        "failures": failures,
        "max_sample_diff": worst,
        "budget": budget,
        "samples": len(traffic.samples),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        rows = info1["rows"] - info0["rows"]
        padded = info1["padded_rows"] - info0["padded_rows"]
        out["layers"] = serve_layers(
            tracer, spec, start, setup_end, closed, opened, plan0, plan_mid,
            info1, padded / max(1, rows + padded), traffic.attempted)
    return out


def serve_layers(tracer, spec, start, setup_end, closed, opened, plan0,
                 plan_mid, info, pad_frac, requests) -> dict:
    """Per-layer numbers of one traced serving trial (raw wall seconds).

    Step = one dispatch (one ``FrozenModel.predict`` call) in the
    closed-loop windows; ``unattributed_s`` is the window time per
    dispatch not covered by any span (batcher, event loop, hand-off).
    """
    def inclusive(name):
        return sum(s.end - s.start for s in tracer.between(start - 1.0, setup_end)
                   if s.name == name)

    # The table covers every span that started in a closed-loop window.
    window = [s for lo, hi in closed["windows"] for s in tracer.between(lo, hi)]
    table_wall = sum(hi - lo for lo, hi in closed["windows"])
    predicts = [s for s in window if s.name == "serve.predict"]
    dispatches = max(1, len(predicts))
    closed_end = closed["windows"][-1][1]
    closed_dispatches = max(1, sum(
        1 for s in tracer.between(setup_end, closed_end)
        if s.name == "serve.predict"))
    selfs = tracer.self_times(window)
    rows = tracer.rows(window)
    counts = tracer.counts(window)

    # Queue wait: open-loop latency minus the predict span of the batch
    # that answered it (the last predict to end before its completion).
    open_predicts = sorted(
        (s.end, s.end - s.start) for s in tracer.spans if s.name == "serve.predict"
    )
    ends = [e for e, _ in open_predicts]
    waits = []
    for latency, done_at in zip(opened["latency_s"], opened["completed_at"]):
        i = bisect.bisect_right(ends, done_at) - 1
        if i >= 0:
            waits.append(latency - open_predicts[i][1])
    rebinds_after_warmup = sum(
        1 for s in tracer.spans if s.name == "lower.rebind" and s.start > setup_end
    )
    table = dict(sorted(selfs.items(), key=lambda kv: -kv[1]))
    table["unattributed"] = table_wall - sum(selfs.values())
    arena = info["arena_bytes"] if spec["precision"] != "float64" else 0
    metrics = {
        "serve.bundle_s": inclusive("serve.bundle"),
        "serve.warmup_s": inclusive("serve.warmup"),
        "serve.predict_s": selfs.get("serve.predict", 0.0) / dispatches,
        "serve.batches": len(predicts) / table_wall,
        "serve.batch_rows": rows.get("serve.predict", 0) / dispatches,
        "serve.queue_wait_ms": _median(waits) * 1e3,
        "serve.pad_frac": pad_frac,
        "torq.quantum_s": selfs.get("torq.quantum", 0.0) / dispatches,
        "torq.quantum_rows": rows.get("torq.quantum", 0) / max(1, counts.get("torq.quantum", 0)),
        "torq.plan_cache_hits": (plan_mid["hits"] - plan0["hits"]) / closed_dispatches,
        "torq.plan_cache_misses": (plan_mid["misses"] - plan0["misses"]) / closed_dispatches,
        "lower.arena_bytes": arena,
        "lower.rebinds_per_kreq": 1e3 * rebinds_after_warmup / max(1.0, requests),
        "unattributed_s": table["unattributed"] / dispatches,
    }
    return {"metrics": metrics, "table": table, "table_wall_s": table_wall}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {int(spec["cpu"])})
    out = run_train(spec) if spec["kind"] == "train" else run_serve(spec)
    if spec.get("environment"):
        from repro import obs

        out["environment"] = obs.environment_info()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
