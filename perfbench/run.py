"""Repository benchmark: the paper's training epochs and the serve path.

One run measures one workload and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload qpinn_vacuum --seed 1 --seconds 16 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced trials;
``--trace 1`` runs one untraced and one traced trial on the same seed
and reports the per-layer metrics.  ``--repeat N`` runs the command N
times on seeds ``seed .. seed+N-1`` and prints each metric's median and
quartiles; ``--workload all`` runs every workload.  ``--tiny`` shrinks
every workload to seconds, for the smoke test.

Every trial runs in a fresh interpreter with ``REPRO_*`` variables
scrubbed, BLAS/OpenMP pinned to one thread, and its own temporary
directory inside the checkout.  The command exits non-zero on any
correctness violation and when the repository's sources are missing.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
# Open-loop tail percentile.  A run pools about 2000 latencies; p99
# rests on the run's 20 slowest and spreads by >50% between runs.
OPEN_TAIL_PCT = 90

# A training trial runs epoch 0 (set-up), ``round(share * steady_per_s)``
# steady epochs and one closing diagnostic epoch, where ``share`` is
# ``--seconds / trials``: a count fixed by --seconds, never by measured
# speed.  A serving trial spends ``closed_share`` of its share in
# closed-loop windows of ``window_s`` and the rest in open-loop segments
# of ``segment_s`` at the fixed Poisson ``rate`` (req/s), also quoted in
# BENCHMARK.json.  ``probe_s`` is the speed probe's length (speed.py).
TRAIN = {"kind": "train", "grid_n": 8, "trials": 2}
SERVE = {
    "kind": "serve", "trials": 2, "min_batch": 1, "max_batch": 256,
    "policy": {"max_batch_points": 256, "max_wait_us": 1000,
               "max_queue": 4096, "overload": "reject"},
    "callers": 32, "closed_share": 0.4, "window_s": 0.5, "segment_s": 1.0,
    "probe_s": 0.05, "pool": 2048, "tile_share": 0.1, "sample_every": 97,
}
WORKLOADS = {
    "qpinn_vacuum": {**TRAIN, "case": "vacuum", "model_kind": "strongly_entangling",
                     "steady_per_s": 0.6, "probe_s": 0.1},
    "pinn_dielectric": {**TRAIN, "case": "dielectric", "model_kind": "regular",
                        "trials": 3, "steady_per_s": 6.0, "probe_s": 0.04},
    "serve_qpinn": {**SERVE, "model": "maxwell_qpinn",
                    "precision": "float64", "rate": 100.0},
    # Single points over two buckets: a LoweredPlan keeps two bound
    # planned executions, so a longer ladder would rebind arenas under
    # mixed batch sizes.
    "serve_q12_f32": {**SERVE, "model": "q12", "n_qubits": 12,
                      "precision": "float32", "rate": 100.0,
                      "tile_share": 0.0, "min_batch": 32, "max_batch": 64,
                      "policy": {**SERVE["policy"], "max_batch_points": 64}},
}
TINY = {
    "train": {"grid_n": 3, "trials": 1, "epochs": 4, "probe_s": 0.01},
    "serve": {"trials": 1, "min_batch": 1, "max_batch": 16, "n_qubits": 4,
              "closed_windows": 2, "open_segments": 2, "segment_s": 0.3,
              "window_s": 0.2, "probe_s": 0.01, "pool": 64, "sample_every": 7,
              "policy": {**SERVE["policy"], "max_batch_points": 16}},
}


def metric_units(group: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in BENCHMARK.json, the single list of metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


# ----------------------------------------------------------------------
# Hermetic trial processes
# ----------------------------------------------------------------------
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
}


# Every trial runs on one CPU.  The server's event loop and worker then
# hand the GIL back and forth on that CPU instead of waking each other
# across vCPUs, whose wake-up latency on a shared VM varies from run to
# run; open-loop p50 spread drops from ~30% to under 10%.
TRIAL_CPU = max(os.sched_getaffinity(0))


def trial_env(tmpdir: Path, tiny: bool) -> dict:
    """The parent environment minus every ``REPRO_*`` knob, with thread
    pins and all caches/temp files redirected into ``tmpdir``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(THREAD_PINS)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               TMPDIR=str(tmpdir), HOME=str(tmpdir),
               XDG_CACHE_HOME=str(tmpdir / "cache"))
    if tiny:
        # The smoke test shrinks the Padé reference solve too.
        env.update(REPRO_REF_GRID="16", REPRO_REF_SNAPSHOTS="3")
    return env


def host_info() -> dict:
    """What tells a noisy machine from a slow program."""
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    return {
        "thread_pins": THREAD_PINS,
        "trial_cpu": TRIAL_CPU,
        "thp": read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "loadavg": read("/proc/loadavg"),
        "nproc": os.cpu_count(),
    }


def trial_specs(name: str, seed: int, seconds: float, trace: bool,
                tiny: bool, tmp: Path) -> list[dict]:
    """The trials of one run.  ``--trace 1`` pairs an untraced and a
    traced trial on the same seed; ``--trace 0`` runs independent
    trials on seeds derived from ``seed``."""
    base = dict(WORKLOADS[name])
    if tiny:
        base.update(TINY[base["kind"]])
    trials = base["trials"]
    share = seconds / trials
    if base["kind"] == "train":
        epochs = base.get("epochs") or 2 + max(
            2, round(share * base["steady_per_s"]))
        # The traced trial sizes the graph on one extra steady epoch.
        base["epochs"] = epochs + 1 if trace else epochs
    else:
        closed_s = share * base["closed_share"]
        base.setdefault("closed_windows", max(1, round(closed_s / base["window_s"])))
        base.setdefault("open_segments",
                        max(1, round((share - closed_s) / base["segment_s"])))
    plan = [False, True] if trace else [False] * trials
    specs = []
    for i, traced in enumerate(plan):
        k = 0 if trace else i
        spec = dict(base, workload=name, traced=traced,
                    seed=seed * 16 + k, tmpdir=str(tmp / f"trial{i}"),
                    environment=i == 0, cpu=TRIAL_CPU)
        specs.append(spec)
    return specs


def run_trial(spec: dict, env: dict, deadline: float) -> dict:
    Path(spec["tmpdir"]).mkdir(parents=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before the trial started")
    proc = subprocess.run(
        [sys.executable, str(HERE / "trial.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"trial exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(trials: list[dict], raw: bool = False) -> dict:
    """End-to-end metrics of one run.

    Every time is scaled to the reference speed by the speed probes
    around it (``speed.py``); ``raw=True`` gives the same figures from
    raw wall times.  Per-step figures are pooled over the trials and
    reduced by their median (open-loop latency: the pooled p50 and
    p``OPEN_TAIL_PCT``); set-up time and memory are medians over trials.
    """
    def get(trial, key):
        return trial["raw_" + key if raw else key]

    values = {
        "setup_s": median([get(t, "setup_s") for t in trials]),
        "peak_rss_mb": median([t["peak_rss_mb"] for t in trials]),
    }
    if trials[0]["kind"] == "train":
        values.update(
            op_ms=1e3 * median([x for t in trials for x in get(t, "epoch_s")]),
            tail_ms=1e3 * median([x for t in trials for x in get(t, "diag_epoch_s")]),
            throughput=median([t["post_setup_epochs"] / get(t, "train_s")
                               for t in trials]),
        )
    else:
        latency = [x for t in trials for x in get(t, "open_latency_s")]
        cuts = statistics.quantiles(latency, n=100)
        values.update(
            op_ms=1e3 * cuts[49],
            tail_ms=1e3 * cuts[OPEN_TAIL_PCT - 1],
            throughput=median([x for t in trials for x in get(t, "closed_rps")]),
        )
    return values


def per_layer(untraced: dict, traced: dict, names) -> tuple[dict, dict]:
    """Per-layer metrics of a traced trial; absent layers report 0."""
    layers = traced["layers"]
    values = {name: 0.0 for name in names}
    values.update({k: v for k, v in layers["metrics"].items() if k in values})
    if traced["kind"] == "train":
        values["harness.trace_overhead"] = (
            median(traced["epoch_s"]) / median(untraced["epoch_s"]) - 1.0)
    else:
        values["harness.trace_overhead"] = (
            median(untraced["closed_rps"]) / median(traced["closed_rps"]) - 1.0)
        values["harness.gen_lag_ms"] = 1e3 * traced["lag_s_p99"]
    values["harness.probe_rate"] = traced["probe_rate"]
    attempted = traced["attempted"] + untraced["attempted"]
    values["harness.error_rate"] = (
        (traced["failed"] + untraced["failed"]) / max(1, attempted))
    return values, layers


def check(trials: list[dict], trace: bool) -> list[str]:
    """Correctness violations across the run's trials."""
    problems = [f"trial {i}: {msg}" for i, t in enumerate(trials)
                for msg in t["failures"]]
    if trace and trials[0]["kind"] == "train":
        if trials[0]["loss_hex"] != trials[1]["loss_hex"]:
            problems.append("traced loss history differs from untraced")
    return problems


def run_once(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repository sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    specs = trial_specs(args.workload, args.seed, args.seconds, args.trace,
                        args.tiny, tmp)
    env = trial_env(tmp, args.tiny)
    try:
        trials = [run_trial(spec, env, deadline) for spec in specs]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    environment = dict(trials[0].get("environment", {}), **host_info())
    print("environment " + json.dumps(environment, sort_keys=True))
    problems = check(trials, args.trace)
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    for t in trials:
        if t.get("errors"):
            print(f"errors: {t['errors']}")
    if args.trace:
        units = metric_units("per_layer")
        values, layers = per_layer(trials[0], trials[1], units)
        print(f"layer table ({args.workload}, self seconds over "
              f"{layers['table_wall_s']:.3f} s traced wall):")
        for name, secs in layers["table"].items():
            print(f"  {name:24s} {secs:10.4f}")
        print(f"  {'sum':24s} {sum(layers['table'].values()):10.4f}")
    else:
        values = end_to_end(trials)
        units = metric_units("end_to_end")
        notes = {"raw": end_to_end(trials, raw=True),
                 "probe_rate": [t["probe_rate"] for t in trials]}
        if trials[0]["kind"] == "serve":
            notes["lag_s_p99"] = [t["lag_s_p99"] for t in trials]
            # The highest percentile with at least ten samples beyond it.
            latency = sorted(x for t in trials for x in t["open_latency_s"])
            notes["open_samples"] = len(latency)
            notes["open_high_pct"] = 100.0 * (1.0 - 10.0 / len(latency))
            notes["open_high_ms"] = 1e3 * latency[-11]
        print("notes " + json.dumps(notes, sort_keys=True))
    for name, value in values.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print(f"attempted {attempted}  failed {failed}  "
          f"error_rate {failed / max(1, attempted):.6g}")
    for msg in problems:
        print(f"VIOLATION: {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 1 if problems else 0


# ----------------------------------------------------------------------
# Repeat and all-workload modes (re-invoke this file, one run each)
# ----------------------------------------------------------------------
def invoke(workload: str, seed: int, args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(int(args.trace))] + (["--tiny"] if args.tiny else [])
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIME_LIMIT_S + 10)
    sys.stdout.write(proc.stdout)
    print(f"run {workload} seed {seed}: {time.monotonic() - start:.1f} s wall")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    for name in names:
        runs = [invoke(name, args.seed + i, args) for i in range(args.repeat)]
        rows = {}
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                          else (vals[0],) * 3)
            rows[metric] = {"median": q2, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / q2 if q2 else 0.0,
                            "values": vals}
            print(f"{name:16s} {metric:28s} median {q2:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {rows[metric]['spread']:.4f}")
        summary[name] = rows
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times on consecutive seeds; print quartiles")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    if args.repeat or args.workload == "all":
        args.repeat = max(1, args.repeat)
        return repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
