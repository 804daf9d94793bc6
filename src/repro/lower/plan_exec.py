"""Lowered TorQ plans: one compiled plan at one precision tier.

A :class:`LoweredPlan` wraps a frozen
:class:`~repro.torq.compile.ExecutionPlan` with one lowered step per plan
step, each working on *split real/imaginary planes* (two float arrays of
shape ``(batch, 2, ..., 2)``) at the tier dtype instead of autodiff
tensors.  It serves the measured (tape-free) path of
:class:`~repro.torq.layer.QuantumLayer` — forward statevector simulation
plus the adjoint reverse sweep — and it runs only one way: through the
:class:`~repro.lower.inplace.PlannedExecution` bound to the batch size,
in place over that execution's liveness-planned arena.

Correctness contract, per tier:

* **float64** — the planned kernels perform the seed arithmetic with
  ``out=`` destinations, so amplitudes, ⟨Z⟩ readouts, and adjoint
  gradients are **bitwise identical** to the seed Tensor/complex128
  path.  The fused single-qubit matrix is the seed's own symbolic
  composition (under ``no_grad``); the reverse sweep *is* the seed
  ``adjoint_step`` code, started from the arena's final planes.
* **float32** — state-sized work runs in float32/complex64.  All
  parameter-space algebra (2×2 factor matrices, prefix/suffix products,
  gradient contractions against the overlap matrix) stays float64, so
  the tier's deviation is bounded by the documented budgets
  (:mod:`repro.lower.budget`).

Besides the tier-cast constants and matrices the executor reads, every
lowered step keeps one allocating ``forward``.  It runs at float64 once
per bound execution, as the probe that records the seed readout layout,
and at both tiers for unfused ``gate`` steps, which the executor runs
allocating and copies into its arena.  Steps read the private
precomputed index/factor fields of the seed plan steps — the two modules
evolve together by design.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..autodiff import Tensor, no_grad
from ..torq import compile as torq_compile
from ..torq.adjoint import _z_weight_mask

__all__ = ["LoweredPlan", "PRECISION_TIERS"]

#: Supported precision tiers.  ``float64`` is the seed arithmetic
#: (complex128 statevectors, bitwise identical); ``float32`` runs
#: state-sized work in float32/complex64.
PRECISION_TIERS: tuple[str, ...] = ("float64", "float32")

_DTYPES = {
    "float64": (np.float64, np.complex128),
    "float32": (np.float32, np.complex64),
}

_INV = float(1.0 / np.sqrt(2.0))


# ----------------------------------------------------------------------
# Small numeric helpers (parameter-space: always float64 internally)
# ----------------------------------------------------------------------

def _np_value(resolve, ref: int) -> np.ndarray:
    """Resolve one flat parameter to a float64 scalar or ``(batch,)``."""
    v = resolve(ref)
    return np.asarray(getattr(v, "data", v), dtype=np.float64)


def _bcast(theta: np.ndarray, bshape: tuple) -> np.ndarray:
    """Mirror of the seed angle broadcast: per-batch 1-D angles gain the
    trailing singleton axes ``bshape``; scalars pass through."""
    if theta.ndim == 0:
        return theta
    if theta.ndim != 1:
        raise ValueError("angles must be scalar or per-batch 1-D")
    return theta.reshape((theta.shape[0],) + bshape)


def _compose_factors(factors, resolve) -> np.ndarray:
    """Numerically compose a fused run's 2×2 unitary from its factor
    list (float64; shape ``(2, 2)`` or ``(batch, 2, 2)``)."""
    u = None
    for kind, payload in factors:
        if kind == "const":
            f = payload
        else:
            f, _ = torq_compile._np_factor_mats(kind, _np_value(resolve, payload))
        u = f if u is None else np.matmul(f, u)
    return u


def _block44(u: np.ndarray) -> np.ndarray:
    """Real block form ``[[Ur, −Ui], [Ui, Ur]]`` of a complex 2×2 (or
    per-batch ``(B, 2, 2)``) matrix, ready to broadcast through matmul."""
    ur, ui = u.real, u.imag
    top = np.concatenate([ur, -ui], axis=-1)
    bot = np.concatenate([ui, ur], axis=-1)
    m = np.concatenate([top, bot], axis=-2)
    if m.ndim == 3:
        return m.reshape(-1, 1, 4, 4)
    return m


def _pack_planes(re: np.ndarray, im: np.ndarray, pack_shape: tuple) -> np.ndarray:
    """One contiguous ``(batch, pre, 4, post)`` buffer with the real rows
    stacked above the imaginary rows (exactly the seed's ``concatenate``
    layout — copying values verbatim keeps the float64 tier bitwise).
    Explicit allocate-and-assign rather than ``np.concatenate``:
    concatenate layout-matches its inputs, so a strided carrier would
    propagate a non-contiguous pack straight into the GEMM."""
    pr = re.reshape(pack_shape)
    out = np.empty(pr.shape[:2] + (4,) + pr.shape[3:], dtype=pr.dtype)
    out[:, :, 0:2] = pr
    out[:, :, 2:4] = im.reshape(pack_shape)
    return out


# ----------------------------------------------------------------------
# Lowered steps
# ----------------------------------------------------------------------

class _LoweredStep:
    """Base lowered step: the seed step plus the tier dtypes."""

    __slots__ = ("seed", "kind", "gates", "rdtype", "cdtype")

    def __init__(self, seed_step, rdtype, cdtype):
        self.seed = seed_step
        self.kind = seed_step.kind
        self.gates = seed_step.gates
        self.rdtype = np.dtype(rdtype)
        self.cdtype = np.dtype(cdtype)

    @property
    def f64(self) -> bool:
        return self.rdtype == np.float64


class _LoweredFused(_LoweredStep):
    """Fused single-qubit run: one real 4×4 block matrix applied to the
    packed planes."""

    def _matrix(self, resolve) -> np.ndarray:
        """The real 4×4 block matrix at the tier dtype.

        float64 reuses the seed's own symbolic composition (bitwise-
        identical entries); float32 composes the float64 factors
        numerically and casts once.
        """
        s = self.seed
        if s._const_m is not None:
            return s._const_m if self.f64 else s._const_m.astype(self.rdtype)
        if not self.f64:
            return _block44(_compose_factors(s._factors, resolve)).astype(
                self.rdtype
            )
        with no_grad():
            mats = [p(resolve) if callable(p) else p for p in s._parts]
            u = mats[0]
            for um in mats[1:]:
                u = torq_compile._mat_mul(um, u)
            m = torq_compile._block_matrix(u)
        return m.data if isinstance(m, Tensor) else m

    def forward(self, re, im, resolve):
        """The seed's pack → broadcast GEMM → slice sequence (float64)."""
        s = self.seed
        out = np.matmul(self._matrix(resolve),
                        _pack_planes(re, im, s._pack_shape))
        return (
            out[:, :, 0:2].reshape(s._full_shape),
            out[:, :, 2:4].reshape(s._full_shape),
        )


class _LoweredPhase(_LoweredStep):
    """Diagonal run as one phase-mask multiply on the planes."""

    __slots__ = ("_coeffs", "_const", "_coeff_flat", "_const_flat")

    def __init__(self, seed_step, rdtype, cdtype):
        super().__init__(seed_step, rdtype, cdtype)
        rd = self.rdtype
        self._coeffs = tuple(
            (c if self.f64 else c.astype(rd), ref)
            for c, ref in seed_step._terms
        )
        c = seed_step._const
        self._const = c if (c is None or self.f64) else c.astype(rd)
        cf = seed_step._coeff_flat
        self._coeff_flat = cf if (cf is None or self.f64) else cf.astype(rd)
        kf = seed_step._const_flat
        self._const_flat = kf if (kf is None or self.f64) else kf.astype(self.cdtype)

    def forward(self, re, im, resolve):
        """The seed's grow-as-you-add mask and plane update (float64)."""
        s = self.seed
        total = None
        for coeff, ref in self._coeffs:
            term = _bcast(_np_value(resolve, ref), s._bshape) * coeff
            total = term if total is None else total + term
        if total is None:  # all-Z run: the mask is the constant ±1 pattern
            return re * self._const, im * self._const
        mre, mim = np.cos(total), np.sin(total)
        if self._const is not None:
            mre = mre * self._const
            mim = mim * self._const
        return re * mre - im * mim, re * mim + im * mre


class _LoweredPerm(_LoweredStep):
    """Basis relabeling: one gather per plane."""

    def forward(self, re, im, resolve):
        """Fancy indexing (not ``np.take``) on purpose: it reproduces the
        seed gather's batch-fastest output layout, which the readout
        probe must see (float64)."""
        s = self.seed
        src = s._src
        return (
            re.reshape(s._flat_shape)[:, src].reshape(s._full_shape),
            im.reshape(s._flat_shape)[:, src].reshape(s._full_shape),
        )


class _LoweredGate(_LoweredStep):
    """One unfused gate, mirroring the interpreted arithmetic on planes.

    Both directions allocate: the planned executor copies their results
    into its arena (these steps are listed as ``fallback_steps``).
    """

    def forward(self, re, im, resolve):
        s = self.seed
        name = s._name
        if name == "cnot":
            c0r, c0i = re[s._idx0], im[s._idx0]
            c1r = np.flip(re[s._idx1], s._taxis)
            c1i = np.flip(im[s._idx1], s._taxis)
            return (
                np.stack([c0r, c1r], axis=s._axis),
                np.stack([c0i, c1i], axis=s._axis),
            )
        if name == "crz":
            c0r, c0i = re[s._idx0], im[s._idx0]
            c1r, c1i = re[s._idx1], im[s._idx1]
            t0r, t0i = c1r[s._tidx0], c1i[s._tidx0]
            t1r, t1i = c1r[s._tidx1], c1i[s._tidx1]
            half = self._half(resolve, s._params[0], s._bshape)
            cn, sn = np.cos(-half), np.sin(-half)
            t0r, t0i = t0r * cn - t0i * sn, t0r * sn + t0i * cn
            cp, sp = np.cos(half), np.sin(half)
            t1r, t1i = t1r * cp - t1i * sp, t1r * sp + t1i * cp
            c1r = np.stack([t0r, t1r], axis=s._taxis)
            c1i = np.stack([t0i, t1i], axis=s._taxis)
            return (
                np.stack([c0r, c1r], axis=s._axis),
                np.stack([c0i, c1i], axis=s._axis),
            )
        if name == "x":
            # .copy(): keep the planes dense (a flip view's negative
            # stride would make the next step's pack/reshape copy).
            return np.flip(re, s._axis).copy(), np.flip(im, s._axis).copy()
        a0r, a0i = re[s._idx0], im[s._idx0]
        a1r, a1i = re[s._idx1], im[s._idx1]
        if name == "h":
            n0r, n0i = (a0r + a1r) * _INV, (a0i + a1i) * _INV
            n1r, n1i = (a0r - a1r) * _INV, (a0i - a1i) * _INV
        elif name == "y":
            n0r, n0i = a1i, -a1r
            n1r, n1i = -a0i, a0r
        elif name == "z":
            n0r, n0i = a0r, a0i
            n1r, n1i = -a1r, -a1i
        elif name == "rx":
            half = self._half(resolve, s._params[0], s._bshape)
            c, sn = np.cos(half), np.sin(half)
            n0r, n0i = a0r * c + a1i * sn, a0i * c - a1r * sn
            n1r, n1i = a1r * c + a0i * sn, a1i * c - a0r * sn
        elif name == "ry":
            half = self._half(resolve, s._params[0], s._bshape)
            c, sn = np.cos(half), np.sin(half)
            n0r, n0i = a0r * c - a1r * sn, a0i * c - a1i * sn
            n1r, n1i = a0r * sn + a1r * c, a0i * sn + a1i * c
        elif name == "rz":
            half = self._half(resolve, s._params[0], s._bshape)
            c, sn = np.cos(half), np.sin(half)
            n0r, n0i = a0r * c + a0i * sn, a0i * c - a0r * sn
            n1r, n1i = a1r * c - a1i * sn, a1i * c + a1r * sn
        else:  # pragma: no cover - closed gate set (lone rot fuses)
            raise ValueError(f"unlowerable gate {name!r}")
        return (
            np.stack([n0r, n1r], axis=s._axis),
            np.stack([n0i, n1i], axis=s._axis),
        )

    def _half(self, resolve, ref, bshape) -> np.ndarray:
        half = _bcast(_np_value(resolve, ref), bshape) * 0.5
        return half if self.f64 else half.astype(self.rdtype)

    def adjoint(self, psi, mu, resolve, accumulate):
        """Float32 un-apply (float64 sweeps run the seed steps directly)."""
        s = self.seed
        name = s._name
        if name in ("h", "x", "y", "z", "cnot"):
            # Constant gates invert dtype-preservingly in the seed code.
            return s.adjoint_step(psi, mu, resolve, accumulate)
        if name == "crz":
            p1 = psi[s._idx1]
            m1 = mu[s._idx1]
            w = (np.conj(p1) * m1).imag
            w0 = w[s._tidx0]
            w1 = w[s._tidx1]
            axes = tuple(range(1, w0.ndim))
            accumulate(
                s._params[0],
                np.asarray((w1 - w0).sum(axis=axes), dtype=np.float64),
            )
            half = _np_value(resolve, s._params[0]) * 0.5
            if half.ndim:
                half = half.reshape((-1,) + s._bshape)
            half = half.astype(self.rdtype)
            e_pos = np.empty(half.shape, dtype=self.cdtype)
            e_pos.real = np.cos(half)
            e_pos.imag = np.sin(half)
            out = []
            for t in (psi, mu):
                c0 = t[s._idx0]
                c1 = t[s._idx1]
                t0 = c1[s._tidx0] * e_pos
                t1 = c1[s._tidx1] * np.conj(e_pos)
                c1 = np.stack([t0, t1], axis=s._taxis)
                out.append(np.stack([c0, c1], axis=s._axis))
            return out[0], out[1]
        # rx / ry / rz with tier carriers, float64 gradient algebra
        u, du = torq_compile._np_factor_mats(name, _np_value(resolve, s._params[0]))
        udag = torq_compile._np_dagger(u).astype(self.cdtype)
        psi_prev = s._np_apply_2x2(psi, udag)
        mu_prev = s._np_apply_2x2(mu, udag)
        b = psi.shape[0]
        m = np.stack([mu[s._idx0], mu[s._idx1]], axis=1).reshape(b, 2, -1)
        p = np.stack(
            [psi_prev[s._idx0], psi_prev[s._idx1]], axis=1
        ).reshape(b, 2, -1)
        # Batched matmul rather than einsum, which runs without BLAS.
        e = np.matmul(np.conj(m), p.transpose(0, 2, 1)).astype(np.complex128)
        if du.ndim == 2:
            g = 2.0 * np.real(np.einsum("ij,bij->b", du, e))
        else:
            g = 2.0 * np.real(np.einsum("bij,bij->b", du, e))
        accumulate(s._params[0], g)
        return psi_prev, mu_prev


_LOWERED_BY_KIND = {
    "fused_1q": _LoweredFused,
    "phase_mask": _LoweredPhase,
    "permutation": _LoweredPerm,
    "gate": _LoweredGate,
}


# ----------------------------------------------------------------------
# The lowered plan
# ----------------------------------------------------------------------

class LoweredPlan:
    """A compiled plan lowered to one precision tier (numpy-native).

    Produced by :func:`repro.lower.lower_plan`.  :meth:`run_planes`
    (forward), :meth:`z_expectations` (readout) and :meth:`adjoint_vjp`
    (all-parameter gradients) run through the
    :class:`~repro.lower.inplace.PlannedExecution` bound to the batch
    size.  A plan keeps one bound execution per batch size it has served,
    for its lifetime, so a fixed set of batch sizes — a serving bucket
    ladder, a training batch — binds each arena exactly once.
    :meth:`amplitudes` and :meth:`memory_report` serve tests and
    inspection.
    """

    def __init__(self, plan, precision: str = "float64"):
        if precision not in PRECISION_TIERS:
            raise ValueError(
                f"unknown precision tier {precision!r}; "
                f"available: {PRECISION_TIERS}"
            )
        rdtype, cdtype = _DTYPES[precision]
        self.plan = plan
        self.precision = precision
        self.rdtype = np.dtype(rdtype)
        self.cdtype = np.dtype(cdtype)
        self.n_qubits = plan.n_qubits
        self.steps = [
            _LOWERED_BY_KIND[s.kind](s, rdtype, cdtype) for s in plan.steps
        ]
        self._planned: dict[int, object] = {}

    def planned_execution(self, batch: int):
        """The :class:`~repro.lower.inplace.PlannedExecution` bound to
        ``batch``, created on first use (its arena binds on first run)."""
        pe = self._planned.get(batch)
        if pe is None:
            # inplace imports this module's helpers at load time.
            from .inplace import PlannedExecution

            pe = self._planned[batch] = PlannedExecution(self, batch)
        return pe

    # -- execution ----------------------------------------------------
    def run_planes(self, batch: int, resolve):
        """Forward statevector simulation from |0…0⟩, in place.

        Returns the final ``(re, im)`` planes at the tier dtype: views
        into the arena of the execution bound to ``batch``, stamped with
        the run that wrote them and valid until the next forward at the
        same batch size.  ``resolve`` maps flat parameter indices to
        floats / ``(batch,)`` arrays (Tensors are unwrapped).
        """
        return self.planned_execution(batch).run_forward(resolve)

    def amplitudes(self, planes) -> np.ndarray:
        """Flat complex amplitudes ``(batch, 2**n)`` at the tier dtype."""
        re, im = planes
        flat = (-1, 2 ** self.n_qubits)
        out = np.empty((re.shape[0], 2 ** self.n_qubits), dtype=self.cdtype)
        out.real = re.reshape(flat)
        out.imag = im.reshape(flat)
        return out

    def z_expectations(self, planes) -> np.ndarray:
        """Per-qubit ⟨Z⟩ of a forward's planes, ``(batch, n_qubits)``.

        Reads out on layout-matched arena scratch, so the float64 tier is
        bitwise equal to :func:`repro.torq.measure.pauli_z_expectations`.
        Raises ``ValueError`` when ``planes`` are not the latest forward
        of this plan at their batch size.
        """
        pe = self._planned.get(planes[0].shape[0])
        if pe is None or not pe.holds(planes):
            raise ValueError(
                "planes are not the latest forward of this plan at their "
                "batch size; a later run_planes has overwritten them"
            )
        return pe.z_expectations()

    def adjoint_vjp(self, values, weights: np.ndarray, planes=None) -> list:
        """All-parameter adjoint gradients of ``Σ weights·⟨Z⟩``.

        The lowered analogue of
        :func:`repro.torq.adjoint.adjoint_state_vjp`: carriers run at
        the tier dtype; returned gradients are float64 (a float per
        shared parameter, ``(batch,)`` per per-batch parameter).
        ``planes`` (from :meth:`run_planes` with the same ``values``)
        skips the forward while the arena still holds it; once a later
        forward at this batch size has overwritten the arena, the forward
        for ``values`` is re-run in place first, so the gradient always
        belongs to ``values``.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != self.n_qubits:
            raise ValueError(
                f"weights must be (batch, {self.n_qubits}), got {weights.shape}"
            )
        batch = weights.shape[0]
        if planes is not None and planes[0].shape[0] != batch:
            raise ValueError(
                f"final state batch {planes[0].shape[0]} != weights batch {batch}"
            )

        def resolve(i: int):
            return values[i]

        grads: dict[int, object] = {}

        def accumulate(ref: int, g) -> None:
            prev = grads.get(ref)
            grads[ref] = g if prev is None else prev + g

        pe = self.planned_execution(batch)
        profiling = obs.is_profiling()
        if planes is None or not pe.holds(planes):
            if planes is not None and profiling:
                obs.metrics().counter(
                    "lower.planned.rerun", precision=self.precision
                ).inc()
            pe.run_forward(resolve)
        if profiling:
            reg = obs.metrics()
            reg.counter("lower.adjoint.sweep", precision=self.precision).inc()
            with reg.scope("lower.adjoint.run", n_qubits=self.n_qubits):
                self._reverse_sweep(pe, resolve, weights, accumulate)
        else:
            self._reverse_sweep(pe, resolve, weights, accumulate)
        return self._format_grads(values, grads, batch)

    def _reverse_sweep(self, pe, resolve, weights, accumulate) -> None:
        if self.precision == "float32":
            pe.adjoint_sweep(resolve, weights, accumulate)
            return
        # float64: the seed adjoint_step kernels, whose exact allocation
        # and ufunc sequence is the bitwise contract, from the arena's
        # final planes.
        re, im = pe.final_planes()
        psi = np.empty(re.shape, dtype=np.complex128)
        psi.real = re
        psi.imag = im
        mu = psi * _z_weight_mask(weights, self.n_qubits)
        for step in reversed(self.plan.steps):
            psi, mu = step.adjoint_step(psi, mu, resolve, accumulate)

    @staticmethod
    def _format_grads(values, grads: dict, batch: int) -> list:
        out = []
        for i, value in enumerate(values):
            g = grads.get(i)
            if g is None:  # parameter owned by no gate in this circuit
                data = np.zeros(batch)
            else:
                data = np.broadcast_to(
                    np.asarray(g, dtype=np.float64), (batch,)
                )
            per_batch = getattr(value, "ndim", 0) == 1
            out.append(data.copy() if per_batch else float(data.sum()))
        return out

    def memory_report(self) -> dict:
        """Arena audit across the bound planned executions.

        Keys are the bound batch sizes; each value is the execution's
        :meth:`~repro.lower.inplace.PlannedExecution.describe` record
        (memory plan, arena bytes, fallback steps).
        """
        return {
            batch: pe.describe() for batch, pe in self._planned.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoweredPlan(n_qubits={self.n_qubits}, "
            f"precision={self.precision!r}, steps={len(self.steps)})"
        )
