#!/usr/bin/env python
"""Chaos smoke run: prove every recovery path end-to-end — emits
``CHAOS_REPORT.json``.

Runs the :mod:`repro.resilience` fault-injection scenarios against real
(tiny) trainers and reports pass/fail per scenario plus a summary of the
``resilience.*`` observability counters:

* **nan-rollback**     — a NaN gradient is injected mid-run; the
                         divergence sentinel rolls back to the last good
                         snapshot, backs off the lr, and the run finishes
                         finite.
* **preempt-resume**   — the run is preempted at a step boundary, writes
                         a final checkpoint, and a second run resumes
                         from it; the combined loss trajectory must be
                         *bitwise identical* to an uninterrupted run
                         (compiled and uncompiled step).
* **corrupt-fallback** — the newest checkpoint is truncated on disk; the
                         resume walks back to the previous valid archive
                         and still reproduces the uninterrupted run.
* **failed-write**     — a checkpoint write raises mid-run; training
                         continues and the next cadence point succeeds.

A scenario that *raises* is recorded as failed (with the traceback tail)
instead of aborting the smoke run, so the report always covers every
scenario and the exit code is non-zero whenever any of them failed.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py
    PYTHONPATH=src python scripts/chaos_smoke.py --out CHAOS_REPORT.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.pde import (  # noqa: E402
    GenericPINN,
    PDETrainer,
    PDETrainerConfig,
    SchrodingerProblem,
)
from repro.resilience import (  # noqa: E402
    ChaosInjector,
    SentinelConfig,
    truncate_file,
)


def make_trainer(seed=0, epochs=9, **kw):
    model = GenericPINN(2, 2, hidden=16, n_hidden=2,
                        rng=np.random.default_rng(seed))
    cfg = PDETrainerConfig(epochs=epochs, eval_every=0, n_collocation=32,
                           n_data=8, resample_every=4, seed=seed, **kw)
    return PDETrainer(model, SchrodingerProblem(), cfg)


def model_params(trainer):
    return [p.data.copy() for p in trainer.model.parameters()]


def scenario_nan_rollback() -> dict:
    trainer = make_trainer(
        sentinel=SentinelConfig(policy="rollback"),
        chaos=ChaosInjector(nan_grad_at=(3,), corrupt_params_at=(6,)),
    )
    result = trainer.train()
    stats = trainer._sentinel.stats
    ok = (
        len(result.loss) == trainer.config.epochs
        and np.isfinite(result.loss[-1])
        and all(np.isfinite(p.data).all() for p in trainer.params)
        and stats["rollbacks"] >= 2
    )
    return {"passed": bool(ok), "final_loss": float(result.loss[-1]),
            "sentinel": {k: v for k, v in stats.items()}}


def scenario_preempt_resume(compiled: bool, workdir: Path) -> dict:
    ckpt_dir = workdir / f"preempt-{'c' if compiled else 'u'}"
    reference = make_trainer(compile_step=compiled)
    ref_result = reference.train()

    first = make_trainer(compile_step=compiled, checkpoint_dir=ckpt_dir,
                         chaos=ChaosInjector(preempt_at=4))
    r1 = first.train()
    second = make_trainer(compile_step=compiled, checkpoint_dir=ckpt_dir,
                          resume_from="auto")
    r2 = second.train()

    bitwise_losses = r1.loss + r2.loss == ref_result.loss
    bitwise_params = all(
        np.array_equal(a, b)
        for a, b in zip(model_params(reference), model_params(second))
    )
    return {"passed": bool(r1.interrupted and bitwise_losses and bitwise_params),
            "interrupted": bool(r1.interrupted),
            "bitwise_losses": bool(bitwise_losses),
            "bitwise_params": bool(bitwise_params),
            "compile_step": compiled}


def scenario_corrupt_fallback(workdir: Path) -> dict:
    ckpt_dir = workdir / "corrupt"
    reference = make_trainer()
    reference.train()

    first = make_trainer(checkpoint_dir=ckpt_dir, checkpoint_every=2,
                         checkpoint_best=False,
                         chaos=ChaosInjector(preempt_at=5))
    first.train()
    newest = first._ckpt.checkpoints()[0]
    truncate_file(newest)

    second = make_trainer(checkpoint_dir=ckpt_dir, checkpoint_every=2,
                          checkpoint_best=False, resume_from="auto")
    r2 = second.train()
    bitwise_params = all(
        np.array_equal(a, b)
        for a, b in zip(model_params(reference), model_params(second))
    )
    return {"passed": bool(len(r2.loss) == 5 and bitwise_params),
            "truncated": newest.name,
            "epochs_rerun": len(r2.loss),
            "bitwise_params": bool(bitwise_params)}


def scenario_failed_write(workdir: Path) -> dict:
    chaos = ChaosInjector(fail_writes=(0,))
    trainer = make_trainer(checkpoint_dir=workdir / "failed-write",
                           checkpoint_every=2, checkpoint_best=False,
                           chaos=chaos)
    result = trainer.train()
    resumable = trainer._ckpt.resume() is not None
    ok = (len(result.loss) == trainer.config.epochs
          and chaos.counts["failed_writes"] == 1 and resumable)
    return {"passed": bool(ok), "failed_writes": chaos.counts["failed_writes"],
            "write_attempts": chaos.counts["write_attempts"],
            "later_checkpoint_valid": bool(resumable)}


def run_scenario(fn, *args) -> dict:
    """One scenario, crash-proofed: a raise is a failure, not an abort."""
    import traceback

    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - reported in the record
        tb = traceback.format_exc().strip().splitlines()
        return {"passed": False, "error": f"{type(exc).__name__}: {exc}",
                "traceback_tail": tb[-3:]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "CHAOS_REPORT.json")
    args = parser.parse_args(argv)

    # Injected NaN/inf legitimately trips numpy warnings mid-scenario.
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    obs.metrics().reset()

    scenarios = {}
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        workdir = Path(tmp)
        print("chaos smoke: exercising every recovery path")
        scenarios["nan-rollback"] = run_scenario(scenario_nan_rollback)
        scenarios["preempt-resume-compiled"] = run_scenario(
            scenario_preempt_resume, True, workdir)
        scenarios["preempt-resume-uncompiled"] = run_scenario(
            scenario_preempt_resume, False, workdir)
        scenarios["corrupt-fallback"] = run_scenario(
            scenario_corrupt_fallback, workdir)
        scenarios["failed-write"] = run_scenario(
            scenario_failed_write, workdir)

    counters = sorted(
        (s for s in obs.metrics().snapshot()
         if s["kind"] == "counter"
         and s["name"].startswith("resilience.")),
        key=lambda s: s["name"],
    )
    all_passed = all(s["passed"] for s in scenarios.values())
    report = {
        "passed": all_passed,
        "scenarios": scenarios,
        "resilience_counters": counters,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for name, s in scenarios.items():
        print(f"  {name:28s} {'passed' if s['passed'] else 'FAILED'}")
    for c in counters:
        label = "".join(f" {k}={v}" for k, v in c["labels"].items())
        print(f"  counter {c['name']}{label}: {c['value']:g}")
    print(f"wrote {args.out}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
