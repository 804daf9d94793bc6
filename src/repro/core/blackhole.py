"""Black-hole (BH) collapse diagnostics (paper §5).

The BH failure mode: after an initial period of genuine learning, the
network collapses to the *trivial solution* — fields ≈ 0 everywhere except
the t = 0 plane.  Operationally this is detected from the total
electromagnetic energy U_θ(t) (Eq. 33): a collapsed network has
Ũ(t) = U(t)/U(0) ≈ 0 away from t = 0, i.e. I_BH = 1 − min Ũ ≈ 1 (Eq. 35).

The paper declares a *BH phenomenon* when over 95 % of random seeds
collapse (:func:`classify_bh_phenomenon`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..maxwell.energy import bh_indicator, normalized_energy, total_energy
from .metrics import _L2_BATCH, evaluate_fields

__all__ = [
    "model_energy_series",
    "model_bh_indicator",
    "is_collapsed",
    "classify_bh_phenomenon",
    "BHReport",
]

#: Ũ deficits above this are treated as collapse of a single run.
COLLAPSE_THRESHOLD = 0.8
#: Fraction of collapsed seeds required to call it a BH *phenomenon*.
PHENOMENON_FRACTION = 0.95


def model_energy_series(
    model,
    t_max: float,
    eps_fn=None,
    n_space: int = 24,
    n_times: int = 12,
) -> tuple[np.ndarray, np.ndarray]:
    """U_θ(t) sampled on a uniform space grid at ``n_times`` instants.

    ``eps_fn(x, y)`` supplies the permittivity map (defaults to vacuum).
    Returns ``(times, energies)``.  All slices go through one
    :func:`~repro.core.metrics.evaluate_fields` call, in the L2
    evaluation's chunk size, so a quantum layer builds its transfer
    matrix once.
    """
    spacing = 2.0 / n_space
    axis = -1.0 + spacing * np.arange(n_space)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    eps = np.ones_like(xx) if eps_fn is None else eps_fn(xx, yy)
    times = np.linspace(0.0, t_max, n_times)
    fields = evaluate_fields(
        model, np.tile(xx.ravel(), n_times), np.tile(yy.ravel(), n_times),
        np.repeat(times, xx.size), batch_size=_L2_BATCH,
    )
    shape = (n_times, *xx.shape)
    energies = total_energy(*(f.reshape(shape) for f in fields), eps,
                            cell_area=spacing * spacing)
    return times, energies


def model_bh_indicator(
    model,
    t_max: float,
    eps_fn=None,
    n_space: int = 24,
    n_times: int = 12,
    delta: float | None = None,
) -> float:
    """I_BH (Eq. 35) for a trained model; ≈ 1 signals collapse."""
    times, energies = model_energy_series(
        model, t_max, eps_fn=eps_fn, n_space=n_space, n_times=n_times
    )
    delta = delta if delta is not None else 0.1 * t_max
    return bh_indicator(energies, times, delta=delta)


def is_collapsed(i_bh: float, threshold: float = COLLAPSE_THRESHOLD) -> bool:
    """Single-run collapse decision."""
    return bool(i_bh >= threshold)


@dataclass(frozen=True)
class BHReport:
    """Aggregate over seeds: per-run I_BH values and the BH verdict."""

    indicators: tuple[float, ...]
    collapse_threshold: float
    collapsed_fraction: float
    is_phenomenon: bool

    def __str__(self) -> str:  # pragma: no cover - formatting
        vals = ", ".join(f"{v:.3f}" for v in self.indicators)
        return (
            f"I_BH = [{vals}]; collapsed {self.collapsed_fraction:.0%} "
            f"(threshold {self.collapse_threshold}); "
            f"BH phenomenon: {self.is_phenomenon}"
        )


def classify_bh_phenomenon(
    indicators,
    collapse_threshold: float = COLLAPSE_THRESHOLD,
    phenomenon_fraction: float = PHENOMENON_FRACTION,
) -> BHReport:
    """Apply the paper's >95 %-of-seeds criterion to a set of runs."""
    indicators = tuple(float(v) for v in indicators)
    if not indicators:
        raise ValueError("need at least one run")
    collapsed = sum(is_collapsed(v, collapse_threshold) for v in indicators)
    fraction = collapsed / len(indicators)
    return BHReport(
        indicators=indicators,
        collapse_threshold=collapse_threshold,
        collapsed_fraction=fraction,
        is_phenomenon=fraction > phenomenon_fraction or np.isclose(fraction, 1.0),
    )
