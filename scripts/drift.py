#!/usr/bin/env python
"""Numerical drift of this tree against another revision, on one host.

Extracts ``REV`` with ``git archive`` into a temporary directory and runs
a fixed case set in both trees, each case in a fresh interpreter per
tree (``PYTHONPATH=<tree>/src``, one BLAS thread).  Per case it prints
whether every value is bitwise equal and the largest absolute deviation,
also relative to the largest magnitude of its array; trajectories add
the largest relative loss deviation over the epochs, the final L2 and
I_BH of both trees.  Nothing is stored: BLAS
picks kernels per CPU, so float64 bits compare only between two trees
on the same machine.

Cases:

* ``qpinn_trajectory`` / ``pinn_trajectory`` — 30-epoch
  ``core.config.run_single`` runs (vacuum, acos, energy loss, temporal
  curriculum, seed 0, 8³ points) of the paper QPINN (strongly
  entangling) and the classical PINN: losses, loss components, L2, I_BH;
* ``residual_step`` — the paper QPINN's residual step
  (``forward_with_derivatives`` plus the parameter backward of the mean
  squares of its ten terms) at 1, 7, 64 and 512 points: terms and
  parameter gradients;
* ``frozen_predictions`` — a warm ``FrozenModel`` of the paper QPINN at
  1, 3, 17, 64 and 100 rows, at float64 and on the float32 tier;
* ``ansatz_gradients`` — ⟨Z⟩ and the parameter and input gradients of a
  ``QuantumLayer`` with ``grad_method="adjoint"`` and
  ``"parameter_shift"`` on the six ansätze;
* ``schrodinger_step`` — the compiled (tape-replayed) Schrödinger PINN
  training step, loss and gradients, at float64 and float32;
* ``loop_configurations`` — short ``TrainLoop`` runs of the Schrödinger
  ``PDETrainer`` and a small Maxwell ``Trainer``, each compiled,
  uncompiled, at float32, with sentinel rollback and skip, stopped by a
  non-finite step without a sentinel and by ``epoch_hook``, and
  preempted or SIGTERMed then resumed from a checkpoint; plus Maxwell
  curriculum, RBA, mini-batch, L-BFGS and gradient-clip runs and a
  small QPINN: losses, gradient norms, stop epochs, final parameters.

``--toy`` runs every case small (3 epochs at 4³ points, fewer sizes) in
well under a minute; CI runs it against the parent commit.

Usage::

    python scripts/drift.py --against HEAD~1
    python scripts/drift.py --against HEAD~1 --toy

Exits non-zero when a case fails in this tree or the two trees return
different keys or shapes; a value deviation alone is reported, not
failed.  A case that fails only in ``REV`` (which may predate an API
the runner calls) is reported as not comparable.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: Runs one case and saves its values as ``.npz``; executed in each tree.
RUNNER = r'''
import sys
import numpy as np

case, out, toy = sys.argv[1], sys.argv[2], sys.argv[3] == "1"


def trajectory(model_kind):
    from repro.core.config import RunConfig, run_single

    result = run_single(RunConfig(
        case="vacuum", model_kind=model_kind, scaling="acos",
        use_energy=True, seed=0, grid_n=4 if toy else 8,
        epochs=3 if toy else 30,
    ))
    hist = result.history
    values = {"loss": np.asarray(hist.loss),
              "l2_error": np.asarray(hist.l2_error),
              "final_l2": np.asarray(result.final_l2),
              "i_bh": np.asarray(result.i_bh)}
    for name, series in hist.components.items():
        values["component." + name] = np.asarray(series)
    return values


def paper_model():
    from repro.core.models import MaxwellQPINN

    return MaxwellQPINN(rng=np.random.default_rng(0))


def residual_step():
    from repro import autodiff as ad
    from repro.core.losses import forward_with_derivatives

    values = {}
    for n in ((1, 7) if toy else (1, 7, 64, 512)):
        model = paper_model()
        params = model.parameters()
        rng = np.random.default_rng(n)
        x, y = rng.uniform(-1.0, 1.0, (2, n, 1))
        t = rng.uniform(0.0, 1.5, (n, 1))
        coords = [ad.Tensor(a, requires_grad=True) for a in (x, y, t)]
        bundle = forward_with_derivatives(model, *coords)
        terms = [bundle.ez, bundle.hx, bundle.hy,
                 *vars(bundle.derivs).values()]
        for p in params:
            p.grad = None
        ad.backward(sum((v * v).mean() for v in terms), params)
        values[f"{n}.terms"] = np.stack([v.data for v in terms])
        for i, p in enumerate(params):
            values[f"{n}.grad{i}"] = p.grad
    return values


def frozen_predictions():
    import tempfile
    from pathlib import Path

    from repro import serve

    values = {}
    for precision in ("float64", "float32"):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.rqb"
            serve.freeze_model(paper_model(), path, precision=precision)
            frozen = serve.load_bundle(path)
            frozen.warmup()
            rng = np.random.default_rng(7)
            for rows in ((1, 3, 17) if toy else (1, 3, 17, 64, 100)):
                pts = rng.uniform(-1.0, 1.0, (rows, frozen.in_dim))
                values[f"{precision}.{rows}"] = np.array(
                    frozen.predict(pts), copy=True)
    return values


def ansatz_gradients():
    from repro import autodiff as ad
    from repro.torq import ANSATZ_NAMES, QuantumLayer

    n = 4 if toy else 7
    values = {}
    for name in ANSATZ_NAMES:
        for method in ("adjoint", "parameter_shift"):
            layer = QuantumLayer(n_qubits=n, n_layers=2, ansatz=name,
                                 grad_method=method,
                                 rng=np.random.default_rng(3))
            rng = np.random.default_rng(4)
            acts = ad.Tensor(rng.uniform(-0.9, 0.9, (5, n)),
                             requires_grad=True)
            w = rng.normal(size=(5, n))
            z = layer(acts)
            layer.params.grad = None
            ad.backward((z * w).sum(), [acts, layer.params])
            key = f"{name}.{method}"
            values[key + ".z"] = z.data
            values[key + ".dparams"] = layer.params.grad
            values[key + ".dinputs"] = acts.grad
    return values


def schrodinger_step():
    from repro.autodiff.tape import compile_step
    from repro.pde import GenericPINN
    from repro.pde.problems import SchrodingerProblem

    problem = SchrodingerProblem()
    values = {}
    for precision in ("float64", "float32"):
        model = GenericPINN(problem.in_dim, problem.out_dim, hidden=32,
                            n_hidden=3, rng=np.random.default_rng(1))
        rng = np.random.default_rng(0)
        points = problem.sample(32 if toy else 256, rng)
        arrays = (*points, *problem.data_arrays(16 if toy else 64, rng))
        k = len(points)

        def fn(*arrs):
            return (problem.residual_loss(model, *arrs[:k])
                    + 10.0 * problem.data_terms(model, *arrs[k:]))

        step = compile_step(fn, model.parameters(), precision=precision)
        for _ in range(3):  # trace, validated replay, frozen replay
            loss, grads, _ = step(*arrays)
        values[precision + ".loss"] = loss
        for i, g in enumerate(grads):
            values[f"{precision}.grad{i}"] = np.array(g, copy=True)
    return values


def loop_configurations():
    import os
    import signal
    import tempfile

    from repro.core import CollocationGrid, Trainer, TrainerConfig, get_case
    from repro.core.models import MaxwellPINN, MaxwellQPINN
    from repro.core.weighting import TemporalCurriculum
    from repro.pde import GenericPINN, PDETrainer, PDETrainerConfig
    from repro.pde.problems import SchrodingerProblem
    from repro.resilience import ChaosInjector, SentinelConfig

    epochs = 6 if toy else 9
    cut = epochs // 2  # the epoch a hook stop, preemption or SIGTERM ends

    def schrodinger(**kw):
        model = GenericPINN(2, 2, hidden=16, n_hidden=2,
                            rng=np.random.default_rng(0))
        cfg = PDETrainerConfig(epochs=epochs, eval_every=0, n_collocation=32,
                               n_data=8, resample_every=4, seed=0, **kw)
        return PDETrainer(model, SchrodingerProblem(), cfg)

    def maxwell(model=None, curriculum=None, rba=None, **kw):
        if model is None:
            model = MaxwellPINN(depth=2, hidden=12, rff_features=6,
                                rng=np.random.default_rng(0))
        loss = get_case("vacuum").make_loss(use_energy=True,
                                            curriculum=curriculum)
        loss.rba = rba
        cfg = TrainerConfig(epochs=epochs, eval_every=0, **kw)
        return Trainer(model, loss, CollocationGrid(n=4, t_max=1.5),
                       config=cfg)

    def run(make, action=None, **kw):
        """Loss and gradient-norm series, stop epochs, final parameters."""
        norms = []

        def hook(epoch, loss, grad_norm, grad_variance):
            norms.append(grad_norm)
            return None if action is None else action(epoch)

        trainer = make(epoch_hook=hook, **kw)
        result = trainer.train()
        rec = getattr(result, "history", result)
        stops = (rec.stop_epoch, rec.early_stop_epoch, result.interrupted)
        return {"loss": rec.loss, "grad_norm": norms,
                "stops": [-1 if s is None else int(s) for s in stops],
                "params": np.concatenate(
                    [p.data.ravel() for p in trainer.model.parameters()])}

    def resumed(make, action=None, **kw):
        """A run interrupted at ``cut``, then resumed from its checkpoint."""
        with tempfile.TemporaryDirectory() as ckpt:
            first = run(make, action, checkpoint_dir=ckpt, **kw)
            second = run(make, checkpoint_dir=ckpt, resume_from="auto")
        return {k: v if k == "params" else np.concatenate([first[k], v])
                for k, v in second.items()}

    def sigterm(epoch):
        if epoch == cut:
            os.kill(os.getpid(), signal.SIGTERM)

    runs = {}
    for name, make in (("schrodinger", schrodinger), ("maxwell", maxwell)):
        for label, kw in {
            "compiled": {},
            "uncompiled": {"compile_step": False},
            "float32": {"precision": "float32"},
            "rollback": {"sentinel": SentinelConfig(policy="rollback"),
                         "chaos": ChaosInjector(nan_grad_at=(2,))},
            "skip": {"sentinel": SentinelConfig(policy="skip"),
                     "chaos": ChaosInjector(nan_grad_at=(2,))},
            "nan_stop": {"chaos": ChaosInjector(corrupt_params_at=(2,))},
        }.items():
            runs[f"{name}.{label}"] = run(make, **kw)
        runs[f"{name}.hook_stop"] = run(
            make, lambda epoch: "stop" if epoch == cut else None)
        runs[f"{name}.preempt_resume"] = resumed(
            make, chaos=ChaosInjector(preempt_at=cut))
        runs[f"{name}.sigterm_resume"] = resumed(make, sigterm)
    runs["maxwell.curriculum"] = run(
        maxwell, curriculum=TemporalCurriculum(ramp_epochs=epochs))
    runs["maxwell.rba"] = run(maxwell, rba="auto")
    runs["maxwell.minibatch"] = run(maxwell, batch_points=32)
    runs["maxwell.lbfgs"] = run(maxwell, lbfgs_epochs=2)
    runs["maxwell.clip"] = run(maxwell, clip_grad_norm=0.1)
    runs["qpinn"] = run(maxwell, model=MaxwellQPINN(
        n_qubits=3, n_layers=2, hidden=8, rff_features=4,
        n_classical_hidden=1, rng=np.random.default_rng(0)))
    return {f"{config}.{k}": v for config, values in runs.items()
            for k, v in values.items()}


CASES = {
    "qpinn_trajectory": lambda: trajectory("strongly_entangling"),
    "pinn_trajectory": lambda: trajectory("regular"),
    "residual_step": residual_step,
    "frozen_predictions": frozen_predictions,
    "ansatz_gradients": ansatz_gradients,
    "schrodinger_step": schrodinger_step,
    "loop_configurations": loop_configurations,
}
np.savez(out, **{k: np.asarray(v, dtype=np.float64)
                 for k, v in CASES[case]().items()})
'''

CASES = ("qpinn_trajectory", "pinn_trajectory", "residual_step",
         "frozen_predictions", "ansatz_gradients", "schrodinger_step",
         "loop_configurations")


def extract(rev: str, dest: Path) -> Path:
    """``git archive REV`` unpacked into ``dest``."""
    blob = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_case(tree: Path, case: str, runner: Path, out: Path,
             toy: bool) -> str | None:
    """Run ``case`` in a fresh interpreter on ``tree``; the error text
    when it fails."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(runner), case, str(out), "1" if toy else "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return proc.stderr.strip().splitlines()[-1] if proc.stderr else "failed"
    return None


def deviation(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Largest ``|a − b|``, absolute and relative to the array's largest
    magnitude (entries that round to zero have no relative scale).  A NaN
    in both trees (a recorded non-finite step) is no deviation."""
    same_nan = np.isnan(a) & np.isnan(b)
    diff = float(np.where(same_nan, 0.0, np.abs(a - b)).max(initial=0.0))
    scale = float(np.where(same_nan, 0.0, np.maximum(np.abs(a), np.abs(b)))
                  .max(initial=0.0))
    return diff, (diff / scale if scale > 0 else 0.0)


def compare(case: str, mine: dict, theirs: dict) -> tuple[bool, list[str]]:
    """Report lines for one case; False when keys or shapes differ."""
    if mine.keys() != theirs.keys():
        return False, [f"  keys differ: {sorted(mine.keys() ^ theirs.keys())}"]
    bad = [k for k in mine if mine[k].shape != theirs[k].shape]
    if bad:
        return False, [f"  shapes differ: {bad}"]
    bitwise = all(np.array_equal(mine[k], theirs[k], equal_nan=True)
                  for k in mine)
    devs = [deviation(mine[k], theirs[k]) for k in mine]
    lines = [f"  bitwise {'yes' if bitwise else 'no'}; largest deviation "
             f"{max(d[0] for d in devs):.2g} absolute, "
             f"{max(d[1] for d in devs):.2g} relative "
             f"({len(mine)} arrays)"]
    if case.endswith("_trajectory"):
        a, b = mine["loss"], theirs["loss"]
        rel = np.abs(a - b) / np.abs(b)
        lines.append(f"  loss: largest relative deviation {rel.max():.2g} "
                     f"(epoch {int(rel.argmax())}); epoch 0 "
                     f"{'equal' if a[0] == b[0] else 'differs'}")
        for key, label in (("final_l2", "final L2"), ("i_bh", "I_BH")):
            lines.append(f"  {label}: {float(mine[key])!r} (this tree) vs "
                         f"{float(theirs[key])!r}")
    return True, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare this tree against")
    parser.add_argument("--toy", action="store_true",
                        help="small sizes, for CI")
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        other = extract(args.against, tmp / "rev")
        runner = tmp / "drift_case.py"
        runner.write_text(RUNNER)
        print(f"drift of {ROOT} against {args.against}"
              f"{' (toy)' if args.toy else ''}")
        for case in CASES:
            print(case)
            results = []
            for tree in (ROOT, other):
                out = tmp / f"{case}.{len(results)}.npz"
                error = run_case(tree, case, runner, out, args.toy)
                if error is not None:
                    break
                with np.load(out) as data:
                    results.append({k: data[k] for k in data.files})
            if not results:
                print(f"  FAILED in this tree: {error}")
                ok = False
                continue
            if len(results) < 2:
                print(f"  not comparable, fails in {args.against}: {error}")
                continue
            same, lines = compare(case, *results)
            ok = ok and same
            print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
