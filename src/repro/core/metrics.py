"""Evaluation metrics: the L2 relative error norm of Eq. 32.

The paper compares E_z against the 4th-order Padé reference on a dense
512×512×1500 space-time grid; the evaluation resolution here is
configurable (and defaults far smaller for CPU budgets) but the estimator
is identical: a relative L2 norm over all sampled space-time points.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, no_grad
from ..solvers.maxwell_ref import ReferenceSolution
from ..torq.layer import transfer_scope

__all__ = ["evaluate_fields", "l2_relative_error", "l2_relative_error_fields"]

#: Rows per forward of the L2 evaluation.  The per-epoch L2 runs between
#: training steps; a 10,240-point batch of the classical PINN peaks at
#: about 51 MB of transients, which land in whatever holes the training
#: graph left on the heap, so the process peak depended on allocator luck.
#: 2,048-row chunks peak near 10 MB and keep it flat.
_L2_BATCH = 2048


def evaluate_fields(
    model, x: np.ndarray, y: np.ndarray, t: np.ndarray, batch_size: int = 16384
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (E_z, H_x, H_y) at flat query points without autodiff.

    Every chunk shares one transfer matrix per quantum layer
    (:func:`~repro.torq.layer.transfer_scope`).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    n = x.shape[0]
    ez = np.empty(n)
    hx = np.empty(n)
    hy = np.empty(n)
    with no_grad(), transfer_scope():
        for start in range(0, n, batch_size):
            sl = slice(start, min(start + batch_size, n))
            e, a, b = model.fields(Tensor(x[sl]), Tensor(y[sl]), Tensor(t[sl]))
            ez[sl] = e.data[:, 0]
            hx[sl] = a.data[:, 0]
            hy[sl] = b.data[:, 0]
    return ez, hx, hy


def l2_relative_error_fields(predicted: np.ndarray, reference: np.ndarray) -> float:
    """Eq. 32: sqrt(Σ (pred − ref)² / Σ ref²) over all sampled points."""
    predicted = np.asarray(predicted, dtype=np.float64).ravel()
    reference = np.asarray(reference, dtype=np.float64).ravel()
    if predicted.shape != reference.shape:
        raise ValueError("prediction/reference size mismatch")
    denom = float(np.sum(reference ** 2))
    if denom == 0.0:
        raise ValueError("reference field is identically zero")
    return float(np.sqrt(np.sum((predicted - reference) ** 2) / denom))


def l2_relative_error(
    model,
    reference: ReferenceSolution,
    n_space: int = 32,
    n_time: int = 10,
    field: str = "ez",
) -> float:
    """Relative L2 error of the model against a reference solution.

    Samples an ``n_space² × n_time`` sub-lattice of the reference grid
    (even stride), evaluates the model there, and applies Eq. 32 to the
    requested field (the paper reports E_z).
    """
    ref_field = {"ez": reference.ez, "hx": reference.hx, "hy": reference.hy}[field]
    nx = reference.x.size
    nt = reference.times.size
    si = np.linspace(0, nx - 1, min(n_space, nx)).astype(int)
    ti = np.linspace(0, nt - 1, min(n_time, nt)).astype(int)

    xg, yg, tg = np.meshgrid(
        reference.x[si], reference.y[si], reference.times[ti], indexing="ij"
    )
    ref_vals = ref_field[np.ix_(ti, si, si)]  # (nt, nx, ny)
    ref_vals = np.moveaxis(ref_vals, 0, -1)  # (nx, ny, nt) to match meshgrid

    pred = {"ez": 0, "hx": 1, "hy": 2}[field]
    fields = evaluate_fields(
        model, xg.ravel(), yg.ravel(), tg.ravel(), batch_size=_L2_BATCH
    )
    return l2_relative_error_fields(fields[pred], ref_vals.ravel())
