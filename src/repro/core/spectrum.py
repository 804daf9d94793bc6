"""Frequency-content analysis (paper §6.2 follow-up (a)).

The paper hypothesises the PQC contributes a *harmonic feature basis* and
suggests quantifying "the frequency spectra of the learned fields and of
the PQC outputs over (x, y, t)".  This module implements both probes:

* :func:`field_spectrum` — radial power spectrum of a model's E_z plane
  at a fixed time (how much high-frequency structure the network learned),
* :func:`pqc_output_spectrum` — Fourier coefficients of each quantum
  "neuron" along a 1-D sweep of one input activation; for an RX-encoded,
  Z-measured circuit these must be (multi-)harmonic trigonometric
  polynomials in the encoding angle (Schuld et al. 2021), and the number
  of non-negligible harmonics grows with re-uploading cycles.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, no_grad
from .metrics import evaluate_fields

__all__ = ["field_spectrum", "pqc_output_spectrum", "dominant_harmonics"]


def field_spectrum(
    model, t: float, n_grid: int = 48, lo: float = -1.0, hi: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Radially-binned power spectrum of E_z(·, ·, t).

    Returns ``(k_bins, power)`` where ``k_bins`` are integer radial mode
    numbers of the periodic box and ``power`` the summed |FFT|² per bin.
    """
    spacing = (hi - lo) / n_grid
    axis = lo + spacing * np.arange(n_grid)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    ez, _, _ = evaluate_fields(model, xx.ravel(), yy.ravel(), np.full(xx.size, t))
    plane = ez.reshape(n_grid, n_grid)
    power2d = np.abs(np.fft.fft2(plane)) ** 2 / plane.size ** 2
    freq = np.fft.fftfreq(n_grid, d=1.0 / n_grid)  # integer mode numbers
    kx, ky = np.meshgrid(freq, freq, indexing="ij")
    radius = np.sqrt(kx ** 2 + ky ** 2)
    k_max = n_grid // 2
    bins = np.arange(k_max + 1)
    power = np.zeros(k_max + 1)
    indices = np.clip(np.rint(radius).astype(int), 0, k_max)
    np.add.at(power, indices.ravel(), power2d.ravel())
    return bins, power


def pqc_output_spectrum(
    layer,
    channel: int = 0,
    n_samples: int = 128,
    base_activation: np.ndarray | None = None,
    sweep: str = "angle",
) -> np.ndarray:
    """|FFT| of the layer outputs as one input dimension sweeps a period.

    ``sweep="angle"`` drives the *encoding angle* of ``channel`` directly
    over [0, 2π) (bypassing the input scaling) — the probe for Schuld et
    al.'s theorem: a single RX encoding yields harmonics of degree ≤ 1 in
    the swept angle; R re-uploading cycles yield degree ≤ R.

    ``sweep="activation"`` drives the activation as ``a = cos(φ)`` through
    the layer's own scaling — what the network actually experiences (for
    arc scalings this is a triangle wave in φ, so the spectrum spreads).

    Returns the one-sided harmonic magnitudes,
    shape ``(n_samples//2 + 1, n_out)``.
    """
    n_in = layer.in_features
    if not 0 <= channel < n_in:
        raise ValueError(f"channel {channel} out of range for {n_in} inputs")
    if sweep not in ("angle", "activation"):
        raise ValueError("sweep must be 'angle' or 'activation'")
    phi = 2.0 * np.pi * np.arange(n_samples) / n_samples

    if sweep == "activation":
        acts = np.zeros((n_samples, n_in))
        if base_activation is not None:
            base_activation = np.asarray(base_activation, dtype=np.float64)
            if base_activation.shape != (n_in,):
                raise ValueError(f"base_activation must have shape ({n_in},)")
            acts[:] = base_activation
        acts[:, channel] = np.cos(phi)
        with no_grad():
            out = layer(Tensor(acts)).data
        return np.abs(np.fft.rfft(out, axis=0)) / n_samples

    # sweep == "angle": rebuild the circuit with explicit angles.
    from ..torq.ansatz import apply_ansatz
    from ..torq.embedding import angle_embedding, rx_product_state
    from ..torq.measure import pauli_z_expectations

    base = np.zeros(n_in) if base_activation is None else np.asarray(base_activation)
    angles = np.tile(base, (n_samples, 1))
    angles[:, channel] = phi
    with no_grad():
        state = rx_product_state(Tensor(angles))
        # QuantumLayer exposes one (ansatz, params); the re-uploading
        # layer owns several blocks — handle both.
        if hasattr(layer, "ansatze"):
            for cycle, ansatz in enumerate(layer.ansatze):
                if cycle:
                    state = angle_embedding(state, Tensor(angles))
                state = apply_ansatz(state, ansatz, getattr(layer, f"params{cycle}"))
        else:
            state = apply_ansatz(state, layer.ansatz, layer.params)
        out = pauli_z_expectations(state).data
    return np.abs(np.fft.rfft(out, axis=0)) / n_samples


def dominant_harmonics(spectrum: np.ndarray, threshold: float = 1e-6) -> int:
    """Highest harmonic index with magnitude above ``threshold``."""
    spectrum = np.asarray(spectrum)
    mags = spectrum.max(axis=1) if spectrum.ndim == 2 else spectrum
    above = np.nonzero(mags > threshold)[0]
    return int(above.max()) if above.size else 0
