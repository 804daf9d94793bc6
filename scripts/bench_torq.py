#!/usr/bin/env python
"""TorQ compiler benchmark — emits ``BENCH_torq.json``.

Measures the three executors on the Table 2 workload (7-qubit × 4-layer
``basic_entangling`` quantum layer, forward + backward per "epoch"):

* ``naive``      — per-point dense simulation (forward only; the
                   ``default.qubit``-like baseline, so its row is a lower
                   bound on baseline cost),
* ``uncompiled`` — batched TorQ with interpreted per-gate dispatch,
* ``compiled``   — batched TorQ replaying the fused execution plan,

plus serial vs. batched parameter-shift gradients (one circuit execution
per shifted parameter vector vs. ONE batched execution for the whole shift
table), the adjoint-method gradient (one forward + one reverse sweep for
ALL parameters), the structural fusion counts (gates vs. kernel steps)
for all six paper ansätze, and the ``repro.lower`` precision tiers: the
float32 layer step, a 10+ qubit float32 forward, and the in-place planned
executor (step time, peak traced memory, arena bytes) against the seed
float64 adjoint, optionally across a qubit sweep.  Wall times are the
median of ``--repeats`` timed runs after a warm-up call.

Usage::

    PYTHONPATH=src python scripts/bench_torq.py              # full bench
    PYTHONPATH=src python scripts/bench_torq.py --toy        # CI smoke
    PYTHONPATH=src python scripts/bench_torq.py --check-structure
    PYTHONPATH=src python scripts/bench_torq.py --toy --check-adjoint

``--check-structure`` exits non-zero unless every fusing ansatz's compiled
plan executes fewer kernel steps than gates; ``--check-adjoint`` exits
non-zero unless an adjoint gradient performs exactly 2 plan sweeps
(forward + reverse) where parameter-shift needs 2P+1 circuit columns;
``--check-lowering`` exits non-zero unless float64 lowered execution is
bitwise identical to the seed adjoint layer and float32 lands inside its
⟨Z⟩ budget.  All are deterministic assertions suitable for CI, unlike
wall-clock thresholds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import autodiff as ad  # noqa: E402
from repro import obs  # noqa: E402
from repro.autodiff import backward  # noqa: E402
from repro.lower import (  # noqa: E402
    amplitude_budget,
    expectation_budget,
    lower_plan,
)
from repro.torq import (  # noqa: E402
    ANSATZ_NAMES,
    NaiveSimulator,
    QuantumLayer,
    adjoint_grad,
    batched_parameter_shift_grad,
    classify_parameters,
    compile_gates,
    make_ansatz,
    make_batched_ansatz_forward,
    parameter_shift_grad,
    shift_table,
)
from repro.torq.adjoint import adjoint_state_vjp  # noqa: E402
from repro.torq.embedding import scale_input  # noqa: E402
from repro.torq.measure import pauli_z_expectations  # noqa: E402
from repro.torq.state import zero_state  # noqa: E402

N_QUBITS = 7
N_LAYERS = 4
ANSATZ = "basic_entangling"


def _median_time(fn, reps: int) -> float:
    """Median-of-``reps`` wall time of ``fn`` (after one warm-up call)."""
    fn()
    times = []
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _layer_step(compiled: bool, batch: int, n_qubits: int, n_layers: int,
                seed: int = 0):
    """One training step (forward + backward) of the Table 2 quantum layer."""
    layer = QuantumLayer(
        n_qubits=n_qubits, n_layers=n_layers, ansatz=ANSATZ,
        scaling="acos", rng=np.random.default_rng(seed), compiled=compiled,
    )
    acts = ad.Tensor(
        np.random.default_rng(seed + 1).uniform(-0.9, 0.9, (batch, n_qubits))
    )
    params = layer.parameters()

    def run() -> None:
        layer.zero_grad()
        out = layer(acts)
        backward((out * out).mean(), params)

    return run


def bench_table2_step(
    batches, n_qubits: int, n_layers: int, reps: int, naive_cap: int,
    seed: int = 0,
) -> list[dict]:
    rows = []
    for batch in batches:
        uncompiled = _median_time(
            _layer_step(False, batch, n_qubits, n_layers, seed), reps
        )
        compiled = _median_time(
            _layer_step(True, batch, n_qubits, n_layers, seed), reps
        )
        row = {
            "batch": batch,
            "uncompiled_s": uncompiled,
            "compiled_s": compiled,
            "speedup_compiled_vs_uncompiled": uncompiled / compiled,
        }
        if batch <= naive_cap:
            ansatz = make_ansatz(ANSATZ, n_qubits=n_qubits, n_layers=n_layers)
            sim = NaiveSimulator(ansatz, scaling="acos")
            p = np.random.default_rng(seed).uniform(0, 2 * np.pi, ansatz.param_count)
            acts = np.random.default_rng(seed + 1).uniform(-0.9, 0.9, (batch, n_qubits))
            row["naive_forward_s"] = _median_time(
                lambda: sim.forward(acts, p), max(1, reps - 1)
            )
            row["speedup_compiled_vs_naive"] = row["naive_forward_s"] / compiled
        rows.append(row)
        print(f"  batch {batch}: uncompiled {uncompiled*1e3:.1f} ms, "
              f"compiled {compiled*1e3:.1f} ms "
              f"({row['speedup_compiled_vs_uncompiled']:.2f}x)")
    return rows


def bench_parameter_shift(
    n_qubits: int, n_layers: int, reps: int, seed: int = 2
) -> dict:
    # cross_mesh gives n(n-1) CRZ params per layer — ≥50 parameters even at
    # toy sizes, and exercises the four-term shift rule.
    ansatz = make_ansatz("cross_mesh", n_qubits=n_qubits, n_layers=n_layers)
    params = np.random.default_rng(seed).uniform(0, 2 * np.pi, ansatz.param_count)
    forward = make_batched_ansatz_forward(ansatz)
    serial = _median_time(lambda: parameter_shift_grad(forward, params, ansatz), reps)
    batched = _median_time(
        lambda: batched_parameter_shift_grad(forward, params, ansatz), reps
    )
    diff = float(np.abs(
        parameter_shift_grad(forward, params, ansatz)
        - batched_parameter_shift_grad(forward, params, ansatz)
    ).max())
    result = {
        "ansatz": "cross_mesh",
        "n_qubits": n_qubits,
        "n_layers": n_layers,
        "n_params": ansatz.param_count,
        "serial_s": serial,
        "batched_s": batched,
        "speedup_batched_vs_serial": serial / batched,
        "max_abs_grad_diff": diff,
    }
    print(f"  shift @ {ansatz.param_count} params: serial {serial*1e3:.0f} ms, "
          f"batched {batched*1e3:.0f} ms "
          f"({result['speedup_batched_vs_serial']:.1f}x, Δ={diff:.1e})")
    return result


def bench_adjoint(shift_result: dict, reps: int, seed: int = 2) -> dict:
    """Adjoint gradient on the same workload :func:`bench_parameter_shift`
    measured — one forward + one reverse sweep for all parameters, vs the
    shift table's 2P+1 circuit columns."""
    ansatz = make_ansatz(
        "cross_mesh",
        n_qubits=shift_result["n_qubits"],
        n_layers=shift_result["n_layers"],
    )
    params = np.random.default_rng(seed).uniform(0, 2 * np.pi, ansatz.param_count)
    adjoint_s = _median_time(lambda: adjoint_grad(ansatz, params), reps)
    forward = make_batched_ansatz_forward(ansatz)
    diff = float(np.abs(
        adjoint_grad(ansatz, params)
        - batched_parameter_shift_grad(forward, params, ansatz)
    ).max())
    rules = classify_parameters(ansatz.gate_sequence(), ansatz.param_count)
    result = {
        "ansatz": "cross_mesh",
        "n_qubits": shift_result["n_qubits"],
        "n_layers": shift_result["n_layers"],
        "n_params": ansatz.param_count,
        "adjoint_s": adjoint_s,
        "speedup_adjoint_vs_serial": shift_result["serial_s"] / adjoint_s,
        "speedup_adjoint_vs_batched": shift_result["batched_s"] / adjoint_s,
        "max_abs_grad_diff_vs_batched": diff,
        "plan_sweeps": 2,
        "shift_columns": len(shift_table(rules)) + 1,  # + unshifted forward
    }
    print(f"  adjoint @ {ansatz.param_count} params: {adjoint_s*1e3:.1f} ms "
          f"({result['speedup_adjoint_vs_batched']:.1f}x vs batched shift, "
          f"{result['speedup_adjoint_vs_serial']:.0f}x vs serial, "
          f"Δ={diff:.1e}; 2 sweeps vs "
          f"{result['shift_columns']} shift columns)")
    return result


def _adjoint_layer_step(batch: int, n_qubits: int, n_layers: int,
                        precision: str = "float64", seed: int = 0):
    """One adjoint-backend training step at ``precision`` (float32 runs
    the lowered planned executor)."""
    layer = QuantumLayer(
        n_qubits=n_qubits, n_layers=n_layers, ansatz=ANSATZ,
        scaling="acos", rng=np.random.default_rng(seed), compiled=True,
        grad_method="adjoint", precision=precision,
    )
    acts = ad.Tensor(
        np.random.default_rng(seed + 1).uniform(-0.9, 0.9, (batch, n_qubits))
    )
    params = layer.parameters()

    def run() -> None:
        layer.zero_grad()
        out = layer(acts)
        backward((out * out).mean(), params)

    return run, layer, acts


def bench_lowering(batch: int, n_qubits: int, n_layers: int, reps: int,
                   seed: int = 0) -> dict:
    """Precision-tier rows: seed float64 adjoint vs the float32 tier.

    The float32 row is the quantum layer on the lowered planned
    executor, reported with its measured ⟨Z⟩ deviation against the
    documented budget (asserted here, not assumed).
    """
    rows = []
    z_ref = None
    times: dict[str, float] = {}
    for name, precision in (("adjoint_f64", "float64"),
                            ("lowered_f32", "float32")):
        run, layer, acts = _adjoint_layer_step(
            batch, n_qubits, n_layers, precision, seed=seed
        )
        times[name] = _median_time(run, reps)
        with ad.no_grad():
            z = layer(acts).data
        n_gates = len(layer.embedded_gate_sequence())
        row = {"tier": name, "precision": precision, "step_s": times[name]}
        if z_ref is None:
            z_ref = z
        else:
            err = float(np.max(np.abs(z - z_ref)))
            budget = expectation_budget(precision, n_qubits, n_gates)
            row["max_abs_z_err"] = err
            row["z_budget"] = budget
            assert err <= budget, f"f32 z error {err} over budget {budget}"
        row["speedup_vs_adjoint_f64"] = times["adjoint_f64"] / times[name]
        rows.append(row)
        print(f"  {name}: {times[name]*1e3:.1f} ms "
              f"({row['speedup_vs_adjoint_f64']:.2f}x vs adjoint f64"
              + (f", z err {row['max_abs_z_err']:.1e}"
                 if "max_abs_z_err" in row else "") + ")")
    return {
        "batch": batch,
        "n_qubits": n_qubits,
        "n_layers": n_layers,
        "speedup_f32_vs_f64": times["adjoint_f64"] / times["lowered_f32"],
        "tiers": rows,
    }


def bench_big_statevector(n_qubits: int, n_layers: int, batch: int,
                          reps: int, seed: int = 0) -> dict:
    """A 10+ qubit statevector row under the float32 tier.

    Runs the lowered forward at ``n_qubits`` in both tiers and checks
    the float32 amplitudes against the float64 oracle within the
    documented amplitude budget.
    """
    ansatz = make_ansatz(ANSATZ, n_qubits=n_qubits, n_layers=n_layers)
    gates = ansatz.gate_sequence()
    rng = np.random.default_rng(seed)
    values = [float(v) for v in rng.uniform(0, 2 * np.pi, ansatz.param_count)]
    lo64 = lower_plan(gates, n_qubits, "float64")
    lo32 = lower_plan(gates, n_qubits, "float32")

    def resolve(i):
        return values[i]

    t64 = _median_time(lambda: lo64.run_planes(batch, resolve), reps)
    t32 = _median_time(lambda: lo32.run_planes(batch, resolve), reps)
    amp64 = lo64.amplitudes(lo64.run_planes(batch, resolve))
    amp32 = lo32.amplitudes(lo32.run_planes(batch, resolve))
    err = float(np.max(np.abs(amp32.astype(np.complex128) - amp64)))
    budget = amplitude_budget("float32", n_qubits, len(gates))
    row = {
        "n_qubits": n_qubits,
        "n_layers": n_layers,
        "n_gates": len(gates),
        "batch": batch,
        "float64_s": t64,
        "float32_s": t32,
        "speedup_f32_vs_f64": t64 / t32,
        "max_abs_amp_err": err,
        "amp_budget": budget,
        "within_budget": err <= budget,
    }
    assert row["within_budget"], \
        f"{n_qubits}-qubit f32 amp error {err} over budget {budget}"
    print(f"  {n_qubits} qubits x batch {batch}: f64 {t64*1e3:.1f} ms, "
          f"f32 {t32*1e3:.1f} ms ({row['speedup_f32_vs_f64']:.2f}x, "
          f"amp err {err:.1e} <= {budget:.1e})")
    return row


def _full_step(plan, values, weights, batch):
    """One forward + readout + adjoint step on a lowered plan."""
    def resolve(i):
        return values[i]

    def run():
        planes = plan.run_planes(batch, resolve)
        plan.z_expectations(planes)
        return plan.adjoint_vjp(values, weights, planes=planes)

    return run


def _seed_step(gates, n_qubits, values, weights, batch):
    """The same step on the seed float64 plan and ``torq.adjoint``."""
    plan = compile_gates(gates, n_qubits)

    def run():
        final = plan.run(zero_state(batch, n_qubits), lambda i: values[i])
        pauli_z_expectations(final)
        return adjoint_state_vjp(gates, n_qubits, values, weights,
                                 plan=plan, final_state=final)

    return run


def _peak_traced_bytes(run) -> int:
    """Peak python-allocated bytes of one warm invocation of ``run``."""
    run()  # warm: bind arenas / caches outside the measured window
    tracemalloc.start()
    run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


def bench_planned(n_qubits: int, n_layers: int, batch: int, reps: int,
                  seed: int = 0) -> dict:
    """The in-place planned executor against the seed float64 adjoint.

    Forward + ⟨Z⟩ + adjoint at ``n_qubits``: step time, peak traced
    memory of one warm step, and the arena footprint of the planned
    float64 and float32 tiers.  The float64 planned gradients are
    asserted bitwise equal to the seed's.
    """
    ansatz = make_ansatz(ANSATZ, n_qubits=n_qubits, n_layers=n_layers)
    gates = ansatz.gate_sequence()
    rng = np.random.default_rng(seed)
    values = [float(v) for v in rng.uniform(0, 2 * np.pi, ansatz.param_count)]
    weights = np.ones((batch, n_qubits))
    with ad.no_grad():
        seed_run = _seed_step(gates, n_qubits, values, weights, batch)
        t_seed = _median_time(seed_run, reps)
        peak_seed = _peak_traced_bytes(seed_run)
        seed_grads = seed_run()
    row = {
        "n_qubits": n_qubits,
        "n_layers": n_layers,
        "n_gates": len(gates),
        "batch": batch,
        "seed_f64_step_s": t_seed,
        "seed_f64_peak_traced_bytes": peak_seed,
        "planned": {},
    }
    parts = [f"seed f64 {t_seed*1e3:.1f} ms, {peak_seed/2**20:.1f} MiB"]
    for precision in ("float64", "float32"):
        plan = lower_plan(gates, n_qubits, precision)
        run = _full_step(plan, values, weights, batch)
        with ad.no_grad():
            t = _median_time(run, reps)
            peak = _peak_traced_bytes(run)
            grads = run()
        if precision == "float64":
            assert all(np.array_equal(a, b)
                       for a, b in zip(seed_grads, grads)), \
                "planned float64 gradients are not bitwise identical"
        report = plan.memory_report()[batch]
        row["planned"][precision] = {
            "step_s": t,
            "speedup_vs_seed_f64": t_seed / t,
            "peak_traced_bytes": peak,
            "peak_memory_ratio_vs_seed_f64": peak_seed / max(1, peak),
            "arena_bytes": report["arena_bytes"],
            "memory_plan": report["memory_plan"],
        }
        parts.append(
            f"planned {precision} {t*1e3:.1f} ms ({t_seed/t:.2f}x), "
            f"{peak/2**20:.2f} MiB + {report['arena_bytes']/2**20:.2f} MiB "
            f"arena"
        )
    print(f"  {n_qubits} qubits x batch {batch}: " + "; ".join(parts))
    return row


def _parse_qubit_sweep(spec: str) -> list[int]:
    """``"9..14"`` / ``"9-14"`` / ``"9,11,13"`` -> sorted qubit counts."""
    spec = spec.strip()
    for sep in ("..", "-"):
        if sep in spec and "," not in spec:
            lo, hi = spec.split(sep, 1)
            lo, hi = int(lo), int(hi)
            if not 1 <= lo <= hi:
                raise ValueError(f"bad qubit sweep {spec!r}")
            return list(range(lo, hi + 1))
    return sorted({int(tok) for tok in spec.split(",") if tok.strip()})


def bench_qubit_sweep(qubits: list[int], n_layers: int, batch: int,
                      reps: int, seed: int = 0) -> list[dict]:
    """:func:`bench_planned` rows across statevector sizes."""
    rows = []
    for n in qubits:
        rows.append(bench_planned(n, n_layers, batch, reps, seed=seed))
    return rows


def check_lowering() -> int:
    """Deterministic CI assertion for the lowered tiers.

    * float64 lowered execution of the layer's circuit (driven with the
      layer's angles and parameters) is bitwise identical to the seed
      adjoint layer's ⟨Z⟩,
    * the float32 layer's ⟨Z⟩ deviation is within its documented budget.
    """
    n_qubits, n_layers, batch = 4, 2, 16
    _, base, acts = _adjoint_layer_step(batch, n_qubits, n_layers)
    _, l32, _ = _adjoint_layer_step(batch, n_qubits, n_layers, "float32")
    gates = base.embedded_gate_sequence()
    with ad.no_grad():
        z0 = base(acts).data
        z32 = l32(acts).data
        angles = scale_input(base.scaling, acts).data
    values = [angles[:, q] for q in range(n_qubits)]
    values += [float(v) for v in base.params.data]
    lo64 = lower_plan(gates, n_qubits, "float64")
    z64 = lo64.z_expectations(lo64.run_planes(batch, lambda i: values[i]))
    budget = expectation_budget("float32", n_qubits, len(gates))
    err32 = float(np.max(np.abs(z32 - z0)))
    bitwise = bool(np.array_equal(z64, z0))
    ok = bitwise and err32 <= budget
    status = "passed" if ok else "FAILED"
    print(f"lowering check {status}: f64 bitwise={bitwise}, "
          f"f32 z err {err32:.1e} <= {budget:.1e}")
    return 0 if ok else 1


def check_adjoint_sweeps(report_adjoint: dict) -> int:
    """Deterministic CI assertion: one adjoint gradient = exactly 2 plan
    sweeps (forward + reverse), however many parameters the circuit has."""
    ansatz = make_ansatz("cross_mesh", n_qubits=4, n_layers=2)
    params = np.random.default_rng(0).uniform(0, 2 * np.pi, ansatz.param_count)
    forward = make_batched_ansatz_forward(ansatz)
    # Instrumented counters land in the process-global registry; diff
    # before/after so earlier profiled runs don't pollute the assertion.
    reg = obs.metrics()
    fwd_counter = reg.counter("torq.adjoint.sweep", direction="forward")
    rev_counter = reg.counter("torq.adjoint.sweep", direction="reverse")
    f0, r0 = fwd_counter.value, rev_counter.value
    with obs.profile():
        g_adj = adjoint_grad(ansatz, params)
    fwd = fwd_counter.value - f0
    rev = rev_counter.value - r0
    rules = classify_parameters(ansatz.gate_sequence(), ansatz.param_count)
    columns = len(shift_table(rules)) + 1
    diff = float(np.abs(
        g_adj - batched_parameter_shift_grad(forward, params, ansatz)
    ).max())
    ok = fwd == 1 and rev == 1 and diff < 1e-8
    status = "passed" if ok else "FAILED"
    print(f"adjoint check {status}: {int(fwd)} forward + {int(rev)} reverse "
          f"sweep(s) for {ansatz.param_count} params "
          f"(parameter-shift needs {columns} columns); Δ={diff:.1e}")
    return 0 if ok else 1


def plan_structure(n_qubits: int, n_layers: int) -> list[dict]:
    rows = []
    for name in ANSATZ_NAMES:
        plan = make_ansatz(name, n_qubits=n_qubits, n_layers=n_layers).execution_plan()
        rows.append({
            "ansatz": name,
            "n_gates": plan.n_gates,
            "n_steps": plan.num_steps,
            "fused_gates": plan.fused_gates,
        })
        print(f"  {name}: {plan.n_gates} gates -> {plan.num_steps} kernel steps")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes for CI smoke runs")
    parser.add_argument("--check-structure", action="store_true",
                        help="assert compiled plans fuse (steps < gates)")
    parser.add_argument("--check-adjoint", action="store_true",
                        help="assert an adjoint gradient = exactly 2 sweeps")
    parser.add_argument("--check-lowering", action="store_true",
                        help="assert f64 lowering is bitwise and f32 is "
                             "within budget")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per measurement (median reported; "
                             "default 2 with --toy, 5 otherwise)")
    parser.add_argument("--qubits-sweep", type=str, default=None,
                        metavar="LO..HI",
                        help="planned-executor rows across statevector "
                             "sizes (e.g. 9..14); defaults to 9..14 on full "
                             "runs, off with --toy")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for parameters and activations")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_torq.json")
    args = parser.parse_args(argv)

    if args.toy:
        n_qubits, n_layers, batches, reps, naive_cap = 4, 2, (16,), 2, 16
    else:
        # Table 2 grids (8^3 and 12^3 collocation points) at paper size.
        n_qubits, n_layers, batches, reps, naive_cap = N_QUBITS, N_LAYERS, (512, 1728), 5, 512
    if args.repeats is not None:
        if args.repeats < 1:
            parser.error("--repeats must be >= 1")
        reps = args.repeats

    print(f"TorQ bench: {n_qubits} qubits x {n_layers} layers ({ANSATZ}), "
          f"median of {reps} run(s), seed {args.seed}")
    print("plan structure:")
    structure = plan_structure(n_qubits, n_layers)
    print("training step (forward+backward):")
    step_rows = bench_table2_step(
        batches, n_qubits, n_layers, reps, naive_cap, seed=args.seed
    )
    print("parameter-shift gradient:")
    shift = bench_parameter_shift(
        n_qubits, max(1, n_layers // 2) if not args.toy else n_layers, reps,
        seed=args.seed + 2,
    )
    print("adjoint gradient:")
    adjoint = bench_adjoint(shift, reps, seed=args.seed + 2)
    print("lowering tiers (adjoint step):")
    lowering = bench_lowering(
        batches[0], n_qubits, n_layers, reps, seed=args.seed
    )
    print("big statevector (float32 tier):")
    big_n, big_batch = (10, 4) if args.toy else (11, 8)
    big_row = bench_big_statevector(
        big_n, 2, big_batch, max(1, reps - 1), seed=args.seed
    )
    print("planned in-place execution vs seed float64 adjoint:")
    plan_n, plan_batch = (6, 8) if args.toy else (14, 32)
    planned_row = bench_planned(
        plan_n, n_layers, plan_batch, max(1, reps - 1), seed=args.seed
    )
    sweep_spec = args.qubits_sweep
    if sweep_spec is None and not args.toy:
        sweep_spec = "9..14"
    sweep_rows = []
    if sweep_spec:
        print(f"qubit sweep ({sweep_spec}):")
        sweep_rows = bench_qubit_sweep(
            _parse_qubit_sweep(sweep_spec), n_layers,
            plan_batch if not args.toy else 8,
            max(1, reps - 1), seed=args.seed,
        )

    report = {
        "workload": {
            "description": "Table 2 QuantumLayer epoch (forward+backward)",
            "ansatz": ANSATZ,
            "n_qubits": n_qubits,
            "n_layers": n_layers,
            "toy": bool(args.toy),
            "repeats": reps,
            "seed": args.seed,
        },
        # CPU/BLAS fingerprint; the "lowering", "big_statevector" and
        # "planned_execution" sections carry per-row precision tiers.
        "environment": obs.environment_info(),
        "table2_step": step_rows,
        "parameter_shift": shift,
        "adjoint": adjoint,
        "plan_structure": structure,
        "lowering": lowering,
        "big_statevector": big_row,
        "planned_execution": planned_row,
        "qubit_sweep": sweep_rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.check_structure:
        failures = [r for r in structure if r["n_steps"] >= r["n_gates"]]
        if failures:
            print(f"STRUCTURE CHECK FAILED: {failures}")
            return 1
        print("structure check passed: compiled plans execute fewer kernels")
    if args.check_adjoint:
        if check_adjoint_sweeps(adjoint) != 0:
            return 1
    if args.check_lowering:
        if check_lowering() != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
