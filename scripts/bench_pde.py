#!/usr/bin/env python
"""Tape-compiler benchmark for the classical PDE training step — emits
``BENCH_autodiff.json``.

Measures the define-by-run autodiff engine against the
:mod:`repro.autodiff.tape` replay executor on the Schrödinger workload at
the paper's training configuration (hidden=32 x 3 layers, 256 collocation
+ 64 data points — the :class:`repro.pde.PDETrainerConfig` defaults):

* ``step``    — one training step (forward + residual + backward) on a
                fixed batch: graph construction + topo sort + VJP closures
                vs. a preplanned kernel replay into a liveness-planned
                arena,
* ``trainer`` — end-to-end :class:`repro.pde.PDETrainer` training runs
                with ``compile_step`` on vs. off (identical seeds; the
                loss trajectories are asserted bitwise equal),
* ``sentinel`` — the same end-to-end run with the
                :mod:`repro.resilience` divergence sentinel on vs. off
                (acceptance: <= 2% overhead, bitwise-equal trajectory).

Timing interleaves the two variants within every repetition and reports
the median of ``--repeats`` runs plus the median per-pair speedup (robust
against machine-load drift).  The step section also reports the max abs difference between
replayed and define-by-run gradients (the tape's contract is bitwise
equality, i.e. 0.0) and the executor's schedule statistics (entries
recorded / after DCE / constant-folded / fused, and the replay arena's
bytes against the unplanned one-buffer-per-entry total).

Usage::

    PYTHONPATH=src python scripts/bench_pde.py               # full bench
    PYTHONPATH=src python scripts/bench_pde.py --toy         # CI smoke
    PYTHONPATH=src python scripts/bench_pde.py --toy --check-alloc

A ``--toy`` run without ``--out`` writes ``.bench_tmp/BENCH_autodiff.toy.json``
(gitignored), so smoke runs never overwrite the committed full-size
report.

``--check-alloc`` exits non-zero unless a steady-state tape replay
constructs exactly zero ``Tensor`` graph nodes and the ``trainer`` row's
compiled side really replayed a tape (its ``disabled`` reason is unset,
so the row does not compare define-by-run with itself) — deterministic
structural assertions suitable for CI, unlike wall-clock thresholds.
``--check-sentinel`` asserts the sentinel's zero-perturbation contract
the same way: a clean guarded run must be bitwise identical to an
unguarded one.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.autodiff import backward  # noqa: E402
from repro.autodiff.tape import compile_step  # noqa: E402
from repro.lower.budget import tape_budget  # noqa: E402
from repro.pde import (  # noqa: E402
    GenericPINN,
    PDETrainer,
    PDETrainerConfig,
    SchrodingerProblem,
)

DATA_WEIGHT = 10.0


def _paired_median(fn_a, fn_b, reps: int) -> tuple[float, float, float]:
    """Interleaved median timing of two functions (after one warm-up each).

    Alternating A/B within every repetition cancels machine-load drift
    out of the comparison; the returned speedup is the median of the
    per-pair ratios, which is far more stable than the ratio of two
    independently measured medians.  Returns ``(median_a, median_b,
    median(a_i / b_i))``.
    """
    fn_a()
    fn_b()
    times_a, times_b = [], []
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn_a()
        times_a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        times_b.append(time.perf_counter() - t0)
    ratios = [a / b for a, b in zip(times_a, times_b)]
    return (
        float(np.median(times_a)),
        float(np.median(times_b)),
        float(np.median(ratios)),
    )


def _build_workload(hidden: int, n_hidden: int, n_col: int, n_data: int,
                    seed: int):
    """Problem, model, parameter list, and one fixed batch of arrays."""
    problem = SchrodingerProblem()
    model = GenericPINN(
        problem.in_dim, problem.out_dim, hidden=hidden, n_hidden=n_hidden,
        rng=np.random.default_rng(seed + 1),
    )
    rng = np.random.default_rng(seed)
    points = problem.sample(n_col, rng)
    arrays = (*points, *problem.data_arrays(n_data, rng))
    params = model.parameters()

    res_terms = getattr(problem, "residual_terms", problem.residual_loss)

    def step_fn(*arrs):
        res = res_terms(model, *arrs[: len(points)])
        dat = problem.data_terms(model, *arrs[len(points):])
        return res + DATA_WEIGHT * dat

    return problem, model, params, arrays, step_fn


def bench_step(hidden: int, n_hidden: int, n_col: int, n_data: int,
               reps: int, seed: int) -> dict:
    """Median per-step wall time, define-by-run vs. tape replay."""
    _, _, params, arrays, step_fn = _build_workload(
        hidden, n_hidden, n_col, n_data, seed
    )

    def direct():
        for p in params:
            p.grad = None
        loss = step_fn(*arrays)
        backward(loss, params)
        return float(loss.data), [p.grad for p in params]

    step = compile_step(step_fn, params, name="schrodinger")
    step(*arrays)  # trace
    step(*arrays)  # first replay (validated against define-by-run)
    step(*arrays)  # verifies + engages the frozen straight-line replay

    direct_s, compiled_s, speedup = _paired_median(
        direct, lambda: step(*arrays), reps
    )

    loss_c, grads_c, _ = step(*arrays)
    grads_c = [g.copy() for g in grads_c]  # replay buffers are reused
    loss_d, grads_d = direct()
    grad_diff = max(
        float(np.abs(a - b).max()) for a, b in zip(grads_c, grads_d)
    )
    info = step.cache_info()
    row = {
        "hidden": hidden,
        "n_hidden": n_hidden,
        "n_collocation": n_col,
        "n_data": n_data,
        "define_by_run_s": direct_s,
        "compiled_s": compiled_s,
        "speedup_compiled_vs_define_by_run": speedup,
        "max_abs_grad_diff": grad_diff,
        "abs_loss_diff": abs(loss_c - loss_d),
        "schedule": info.get("schedule"),
    }
    print(f"  step: define-by-run {direct_s*1e3:.1f} ms, "
          f"compiled {compiled_s*1e3:.1f} ms "
          f"({row['speedup_compiled_vs_define_by_run']:.2f}x, "
          f"grad Δ={grad_diff:.1e})")
    sched = info.get("schedule") or {}
    if sched:
        print(f"        schedule: {sched.get('recorded')} recorded -> "
              f"{sched.get('after_dce')} after DCE, "
              f"{sched.get('folded')} folded, {sched.get('fused')} fused")
        print(f"        arena: {sched.get('arena_bytes', 0) / 1e3:.1f} kB "
              f"for {sched.get('buffers')} buffers "
              f"({sched.get('unplanned_bytes', 0) / 1e3:.1f} kB unplanned)")
    return row


def bench_precision(hidden: int, n_hidden: int, n_col: int, n_data: int,
                    reps: int, seed: int) -> dict:
    """Tape replay wall time per precision tier: float64 vs float32.

    The float32 tier demotes the replay buffers (inputs, live parameters,
    folded constants) to single precision and promotes gradients back to
    float64 at the boundary; its acceptance bar is the lowering
    pipeline's :func:`repro.lower.budget.tape_budget` normalized error
    against the float64 replay of the *same* schedule.
    """
    _, _, params, arrays, step_fn = _build_workload(
        hidden, n_hidden, n_col, n_data, seed
    )
    step64 = compile_step(step_fn, params, name="tier-f64")
    step32 = compile_step(step_fn, params, name="tier-f32",
                          precision="float32")
    for step in (step64, step32):
        step(*arrays)  # trace
        step(*arrays)  # validated replay
        step(*arrays)  # frozen straight-line replay
    f64_s, f32_s, speedup = _paired_median(
        lambda: step64(*arrays), lambda: step32(*arrays), reps
    )
    loss64, grads64, _ = step64(*arrays)
    grads64 = [g.copy() for g in grads64]
    loss32, grads32, _ = step32(*arrays)
    err = max(
        float(np.abs(a - b).max()) / (1.0 + float(np.abs(b).max()))
        for a, b in zip(grads32, grads64)
    )
    err = max(err, abs(loss32 - loss64) / (1.0 + abs(loss64)))
    recorded = (step64.cache_info().get("schedule") or {}).get("recorded", 0)
    budget = tape_budget("float32", recorded)
    row = {
        "float64_s": f64_s,
        "float32_s": f32_s,
        "speedup_f32_vs_f64": speedup,
        "max_normalized_err": err,
        "error_budget": budget,
        "within_budget": err <= budget,
        "fallback": bool(step32.disabled),
    }
    print(f"  precision: f64 replay {f64_s*1e3:.1f} ms, f32 replay "
          f"{f32_s*1e3:.1f} ms ({speedup:.2f}x, err {err:.1e} "
          f"{'<=' if row['within_budget'] else '>'} budget {budget:.1e})")
    return row


def bench_trainer(hidden: int, n_hidden: int, n_col: int, n_data: int,
                  epochs: int, reps: int, seed: int) -> dict:
    """End-to-end PDETrainer wall time with the compiled step on vs. off."""
    problem = SchrodingerProblem()
    losses: dict[bool, list[float]] = {}
    infos: dict[bool, dict] = {}

    def run(compiled: bool):
        def once():
            model = GenericPINN(
                problem.in_dim, problem.out_dim, hidden=hidden,
                n_hidden=n_hidden, rng=np.random.default_rng(seed + 1),
            )
            cfg = PDETrainerConfig(
                epochs=epochs, n_collocation=n_col, n_data=n_data,
                eval_every=0, seed=seed, compile_step=compiled,
            )
            trainer = PDETrainer(model, problem, cfg)
            losses[compiled] = trainer.train().loss
            infos[compiled] = trainer.cache_info()
        return once

    direct_s, compiled_s, speedup = _paired_median(run(False), run(True), reps)
    identical = losses[True] == losses[False]
    row = {
        "epochs": epochs,
        "define_by_run_s": direct_s,
        "compiled_s": compiled_s,
        "speedup_compiled_vs_define_by_run": speedup,
        "loss_trajectories_bitwise_equal": identical,
        "final_loss": losses[True][-1],
        # why the compiled side ran define-by-run (None: it replayed)
        "disabled": infos[True]["disabled"],
    }
    print(f"  trainer ({epochs} epochs): define-by-run {direct_s:.2f} s, "
          f"compiled {compiled_s:.2f} s "
          f"({row['speedup_compiled_vs_define_by_run']:.2f}x, "
          f"trajectories equal: {identical}, disabled: {row['disabled']})")
    return row


def bench_sentinel(hidden: int, n_hidden: int, n_col: int, n_data: int,
                   epochs: int, reps: int, seed: int) -> dict:
    """End-to-end trainer wall time with the divergence sentinel on vs. off.

    The sentinel's per-step cost is a handful of ``isfinite`` reductions,
    so the acceptance bar is tight: <= 2% median overhead on this
    workload, and a *bitwise identical* loss trajectory (on a clean run
    the sentinel must observe, never perturb).
    """
    from repro.resilience import SentinelConfig

    problem = SchrodingerProblem()
    losses: dict[bool, list[float]] = {}

    def run(sentinel: bool):
        def once():
            model = GenericPINN(
                problem.in_dim, problem.out_dim, hidden=hidden,
                n_hidden=n_hidden, rng=np.random.default_rng(seed + 1),
            )
            cfg = PDETrainerConfig(
                epochs=epochs, n_collocation=n_col, n_data=n_data,
                eval_every=0, seed=seed,
                sentinel=SentinelConfig(policy="rollback") if sentinel
                else None,
            )
            result = PDETrainer(model, problem, cfg).train()
            losses[sentinel] = result.loss
        return once

    off_s, on_s, _ = _paired_median(run(False), run(True), reps)
    overhead = on_s / off_s - 1.0
    identical = losses[True] == losses[False]
    row = {
        "epochs": epochs,
        "sentinel_off_s": off_s,
        "sentinel_on_s": on_s,
        "overhead_fraction": overhead,
        "loss_trajectories_bitwise_equal": identical,
    }
    print(f"  sentinel ({epochs} epochs): off {off_s:.2f} s, on {on_s:.2f} s "
          f"({overhead*100:+.1f}% overhead, trajectories equal: {identical})")
    return row


def check_sentinel(hidden: int, n_hidden: int, n_col: int, n_data: int,
                   epochs: int, seed: int) -> int:
    """Deterministic CI assertion for the sentinel's zero-perturbation
    contract: on a clean run the loss trajectory with the sentinel enabled
    is bitwise identical to the unguarded one, and a trainer without a
    sentinel holds no sentinel object at all (the disabled path costs one
    ``is None`` test, nothing else)."""
    from repro.resilience import SentinelConfig

    problem = SchrodingerProblem()

    def run(sentinel):
        model = GenericPINN(
            problem.in_dim, problem.out_dim, hidden=hidden,
            n_hidden=n_hidden, rng=np.random.default_rng(seed + 1),
        )
        cfg = PDETrainerConfig(
            epochs=epochs, n_collocation=n_col, n_data=n_data,
            eval_every=0, seed=seed, sentinel=sentinel,
        )
        trainer = PDETrainer(model, problem, cfg)
        return trainer, trainer.train().loss

    plain_trainer, plain = run(None)
    guarded_trainer, guarded = run(SentinelConfig(policy="rollback"))
    zero_path = plain_trainer._sentinel is None
    clean = guarded_trainer._sentinel.stats["nan_events"] == 0
    ok = plain == guarded and zero_path and clean
    status = "passed" if ok else "FAILED"
    print(f"sentinel check {status}: trajectories equal={plain == guarded}, "
          f"disabled path holds no sentinel={zero_path}, "
          f"clean run saw no events={clean}")
    return 0 if ok else 1


def check_zero_alloc(hidden: int, n_hidden: int, n_col: int, n_data: int,
                     seed: int, trainer_disabled) -> int:
    """Deterministic CI assertion: a steady-state tape replay constructs
    ZERO ``Tensor`` graph nodes (the whole point of the compiler), and
    the compiled trainer row was not disabled to define-by-run."""
    from repro.autodiff import tensor as tensor_mod

    _, _, params, arrays, step_fn = _build_workload(
        hidden, n_hidden, n_col, n_data, seed
    )
    step = compile_step(step_fn, params, name="alloc-check")
    step(*arrays)  # trace
    step(*arrays)  # first replay runs the validation pass (allocates)
    step(*arrays)  # steady state

    counter = {"n": 0}
    orig_init = tensor_mod.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        counter["n"] += 1
        orig_init(self, *args, **kwargs)

    tensor_mod.Tensor.__init__ = counting_init
    try:
        step(*arrays)
    finally:
        tensor_mod.Tensor.__init__ = orig_init
    ok = counter["n"] == 0 and not step.disabled and not trainer_disabled
    status = "passed" if ok else "FAILED"
    print(f"alloc check {status}: {counter['n']} Tensor node(s) constructed "
          f"during a steady-state replay (expected 0; "
          f"disabled={bool(step.disabled)}; compiled trainer "
          f"disabled={trainer_disabled!r})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes for CI smoke runs")
    parser.add_argument("--check-alloc", action="store_true",
                        help="assert a steady-state replay allocates zero "
                             "Tensor graph nodes")
    parser.add_argument("--check-sentinel", action="store_true",
                        help="assert the divergence sentinel never perturbs "
                             "a clean run (bitwise-equal trajectories)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per measurement (median reported; "
                             "default 2 with --toy, 5 otherwise)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for parameters and sampling")
    parser.add_argument("--out", type=Path, default=None,
                        help="report path (default BENCH_autodiff.json, or "
                             ".bench_tmp/BENCH_autodiff.toy.json with --toy)")
    args = parser.parse_args(argv)
    out = args.out or REPO_ROOT / (
        ".bench_tmp/BENCH_autodiff.toy.json" if args.toy
        else "BENCH_autodiff.json")

    if args.toy:
        hidden, n_hidden, n_col, n_data, epochs, reps = 8, 2, 32, 16, 10, 2
    else:
        # The PDETrainerConfig defaults: the paper's classical Schrödinger
        # training configuration.
        hidden, n_hidden, n_col, n_data, epochs, reps = 32, 3, 256, 64, 100, 5
    if args.repeats is not None:
        if args.repeats < 1:
            parser.error("--repeats must be >= 1")
        reps = args.repeats

    gc_was_enabled = gc.isenabled()
    gc.disable()  # match the trainers' steady-state GC policy
    try:
        print(f"autodiff tape bench: Schrödinger, hidden={hidden} x "
              f"{n_hidden} layers, {n_col} collocation + {n_data} data "
              f"points, median of {reps} run(s), seed {args.seed}")
        print("training step (forward+residual+backward):")
        step_row = bench_step(hidden, n_hidden, n_col, n_data, reps,
                              args.seed)
        print("precision tiers (tape replay):")
        precision_row = bench_precision(hidden, n_hidden, n_col, n_data,
                                        reps, args.seed)
        print("end-to-end trainer:")
        trainer_row = bench_trainer(hidden, n_hidden, n_col, n_data, epochs,
                                    reps, args.seed)
        print("divergence sentinel overhead:")
        sentinel_row = bench_sentinel(hidden, n_hidden, n_col, n_data,
                                      epochs, reps, args.seed)
    finally:
        if gc_was_enabled:
            gc.enable()

    report = {
        "workload": {
            "description": "Schrödinger PDE training step "
                           "(forward+residual+backward)",
            "problem": "schrodinger",
            "hidden": hidden,
            "n_hidden": n_hidden,
            "n_collocation": n_col,
            "n_data": n_data,
            "toy": bool(args.toy),
            "repeats": reps,
            "seed": args.seed,
        },
        # Tape-tier benches report both tiers; the headline environment
        # records the default (float64) the trainer rows ran under.
        "environment": obs.environment_info(),
        "step": step_row,
        "precision_tiers": precision_row,
        "trainer": trainer_row,
        "sentinel": sentinel_row,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    if args.check_alloc:
        if check_zero_alloc(hidden, n_hidden, n_col, n_data, args.seed,
                            trainer_row["disabled"]) != 0:
            return 1
    if args.check_sentinel:
        if check_sentinel(hidden, n_hidden, n_col, n_data, epochs,
                          args.seed) != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
