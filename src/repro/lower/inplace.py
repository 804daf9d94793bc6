"""The lowered float32 tier: lowered plans and their in-place executor.

A :class:`LoweredPlan` wraps a frozen
:class:`~repro.torq.compile.ExecutionPlan` for the inference-only path
of ``QuantumLayer(precision="float32")`` and float32 serving: forward
statevector simulation and the ⟨Z⟩ readout over *split real/imaginary
planes* (two float32 arrays of shape ``(batch, 2, ..., 2)``).  The tier
has no gradient.  State-sized work runs in float32/complex64; the 2×2
factor matrices are built in float64 from the gate table of the seed
steps (one cos and one sin per run) and cast once, so the deviation
from the float64 seed plan is bounded by the documented budgets
(:mod:`repro.lower.budget`).

Every lowered step is one of three kernels, reading the precomputed
index and factor fields of its seed step (the two modules evolve
together by design):

* **fused_1q** — a run of single-qubit gates as one real 4×4 block GEMM
  over SoA-packed planes: broadcast over ``(batch, pre, 4, post)``, or —
  for a batch-independent matrix over a short ``post`` extent, where the
  broadcast form degenerates into many tiny GEMMs
  (:func:`repro.torq.compile._row_gemm`) — one ``m @ (4, batch·pre·post)``
  column GEMM;
* **phase_mask** — a run of diagonal gates as one phase multiply;
* **permutation** — a run of X/CNOT gates as one gather per plane.

A lone gate, which the seed plan keeps as an unfused ``gate`` step, is
lowered to the one-gate step of its kind (a single-qubit gate to
``fused_1q``, CRZ to ``phase_mask``, CNOT to ``permutation``).

:class:`PlannedExecution` binds a lowered plan to one batch size.  All
carriers — plane ping-pongs, SoA pack buffers, phase-mask scratches and
the readout scratch — are declared as
:class:`~repro.lower.memplan.BufferSpec` live intervals over one virtual
timeline (init, forward steps, readout) and assigned to shared arena
slots by the liveness planner when the execution is constructed.  From
then on forward and readout run **without allocating a single
statevector-sized array**.

No arena view leaves the package: :meth:`LoweredPlan.z_expectations`
and :meth:`LoweredPlan.amplitudes` run the forward and return fresh
arrays, so a later forward cannot overwrite what a caller holds.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..torq import compile as torq_compile
from ..torq.compile import _np_angle, _real_block, _row_gemm
from ..torq.state import zero_planes_into
from .memplan import Arena, BufferSpec, plan_buffers

__all__ = ["LoweredPlan", "PlannedExecution"]

_RD = np.dtype(np.float32)
_CD = np.dtype(np.complex64)


# ----------------------------------------------------------------------
# Lowered steps: a seed step plus the float32 constants the executor reads
# ----------------------------------------------------------------------

class _Step:
    """A lowered step: its seed step (a permutation needs nothing else)."""

    __slots__ = ("seed", "kind", "gates")

    def __init__(self, seed):
        self.seed = seed
        self.kind = seed.kind
        self.gates = seed.gates


class _Fused(_Step):
    """Fused single-qubit run: one real 4×4 block matrix."""

    __slots__ = ("_const_m",)

    def __init__(self, seed):
        super().__init__(seed)
        m = seed._const_m
        self._const_m = None if m is None else m.astype(_RD)

    def matrix(self, gates) -> np.ndarray:
        """The float32 block matrix: the run's float64 unitary from the
        gate table ``gates``, cast once."""
        if self._const_m is not None:
            return self._const_m
        return _real_block(gates.unitary(self.seed)).astype(_RD)


class _Phase(_Step):
    """Diagonal run: one phase-mask multiply on the planes."""

    __slots__ = ("coeffs", "const", "mask_tail", "scratch_tail")

    def __init__(self, seed):
        super().__init__(seed)
        self.coeffs = tuple((c.astype(_RD), ref) for c, ref in seed._terms)
        c = seed._const
        self.const = None if c is None else c.astype(_RD)
        # Non-batch extents of the summed-angle mask and of the mask
        # times the constant ±1 pattern, fixed here so that a forward
        # only picks the batch extent.
        self.mask_tail = np.broadcast_shapes(
            *(c.shape[1:] for c, _ in self.coeffs)
        )
        self.scratch_tail = (
            self.mask_tail if self.const is None
            else np.broadcast_shapes(self.mask_tail, self.const.shape[1:])
        )


_STEPS = {"fused_1q": _Fused, "phase_mask": _Phase, "permutation": _Step}


def _lower_step(seed, n_qubits: int) -> _Step:
    """The lowered step of seed step ``seed``.  A lone ``gate`` step is
    first rebuilt as the one-gate fused, phase-mask or permutation step
    its gate compiles to in a run."""
    if seed.kind == "gate":
        gate = seed._gate
        if gate.name in torq_compile._SINGLE_QUBIT:
            seed = torq_compile._FusedSingleQubitStep(
                (gate,), gate.qubits[0], n_qubits
            )
        elif gate.name in torq_compile._DIAGONAL:
            seed = torq_compile._PhaseMaskStep((gate,), n_qubits)
        else:
            seed = torq_compile._PermutationStep((gate,), n_qubits)
    return _STEPS[seed.kind](seed)


# ----------------------------------------------------------------------
# The lowered plan
# ----------------------------------------------------------------------

class LoweredPlan:
    """A compiled plan lowered to the float32 tier (numpy-native).

    Produced by :func:`repro.lower.lower_plan`.  :meth:`z_expectations`
    (forward + readout) runs through the :class:`PlannedExecution` bound
    to the batch size.  A plan keeps one bound execution per batch size
    it has served, for its lifetime, so a fixed set of batch sizes — a
    serving bucket ladder — binds each arena exactly once.
    :meth:`amplitudes` and :meth:`memory_report` serve tests and
    inspection.
    """

    def __init__(self, plan):
        self.plan = plan
        self.n_qubits = plan.n_qubits
        self.steps = [_lower_step(s, plan.n_qubits) for s in plan.steps]
        # The gate table of the lowered steps' seeds (a lone gate's seed
        # is the one-gate fused step it was rebuilt as).
        self._table = torq_compile._GateTable(tuple(s.seed for s in self.steps))
        self._planned: dict[int, PlannedExecution] = {}

    def planned_execution(self, batch: int) -> "PlannedExecution":
        """The :class:`PlannedExecution` bound to ``batch``, created (and
        its arena planned) on first use."""
        pe = self._planned.get(batch)
        if pe is None:
            pe = self._planned[batch] = PlannedExecution(self, batch)
        return pe

    def z_expectations(self, batch: int, resolve) -> np.ndarray:
        """Forward from |0…0⟩, in place, then per-qubit ⟨Z⟩.

        Returns a fresh float64 ``(batch, n_qubits)`` array.  ``resolve``
        maps flat parameter indices to floats / ``(batch,)`` arrays
        (Tensors are unwrapped).
        """
        pe = self.planned_execution(batch)
        pe.run_forward(resolve)
        return pe.z_expectations()

    def amplitudes(self, batch: int, resolve) -> np.ndarray:
        """Forward from |0…0⟩, in place; returns the final state as a
        fresh complex64 ``(batch, 2**n)`` array."""
        pe = self.planned_execution(batch)
        pe.run_forward(resolve)
        re, im = pe.final_planes()
        flat = (batch, 2 ** self.n_qubits)
        out = np.empty(flat, dtype=_CD)
        out.real = re.reshape(flat)
        out.imag = im.reshape(flat)
        return out

    def memory_report(self) -> dict:
        """Arena audit across the bound planned executions: each bound
        batch size maps to its :meth:`PlannedExecution.describe` record."""
        return {
            batch: pe.describe() for batch, pe in self._planned.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LoweredPlan(n_qubits={self.n_qubits}, "
            f"steps={len(self.steps)})"
        )


# ----------------------------------------------------------------------
# The in-place executor
# ----------------------------------------------------------------------

class PlannedExecution:
    """One lowered plan bound to one batch size, executing in place.

    Construction plans the arena and binds every view.
    """

    def __init__(self, lowered: LoweredPlan, batch: int):
        self.lowered = lowered
        self.batch = int(batch)
        self.n_qubits = int(lowered.n_qubits)
        self.dim = 2 ** self.n_qubits
        self._build()

    # ------------------------------------------------------------------
    # Bind time: liveness specs, arena, bound views
    # ------------------------------------------------------------------
    def _build(self) -> None:
        steps = self.lowered.steps
        K = len(steps)
        b, n, dim = self.batch, self.n_qubits, self.dim
        plane = b * dim * _RD.itemsize
        full = (b,) + (2,) * n
        ro_pos = K + 1

        specs: list[BufferSpec] = []
        for v in range(K + 1):
            # Planes v are written by step v - 1 and read by step v; the
            # final planes by the readout at ``ro_pos``.
            specs.append(BufferSpec(f"p{v}.re", plane, v, v + 1))
            specs.append(BufferSpec(f"p{v}.im", plane, v, v + 1))

        for i, step in enumerate(steps):
            pos = i + 1
            if step.kind == "fused_1q":
                specs.append(BufferSpec(f"s{i}.a", 2 * plane, pos, pos))
                specs.append(BufferSpec(f"s{i}.b", 2 * plane, pos, pos))
            elif step.kind == "phase_mask" and step.coeffs:
                wc_bytes = b * int(np.prod(step.scratch_tail)) * _RD.itemsize
                for suffix in ("t", "u", "c1", "s1", "c2", "s2"):
                    specs.append(
                        BufferSpec(f"s{i}.{suffix}", wc_bytes, pos, pos)
                    )
                specs.append(BufferSpec(f"s{i}.sc", plane, pos, pos))

        specs.append(BufferSpec("ro.a", plane, ro_pos, ro_pos))
        specs.append(BufferSpec("ro.b", plane, ro_pos, ro_pos))

        self.plan = plan_buffers(specs)
        self.arena = Arena(self.plan)
        ar = self.arena

        self._full = [
            (ar.view(f"p{v}.re", full, _RD), ar.view(f"p{v}.im", full, _RD))
            for v in range(K + 1)
        ]
        self._flat2 = [
            (ar.view(f"p{v}.re", (b, dim), _RD),
             ar.view(f"p{v}.im", (b, dim), _RD))
            for v in range(K + 1)
        ]

        self._ctx: list[dict] = []
        for i, step in enumerate(steps):
            ctx: dict = {}
            if step.kind == "fused_1q":
                _, pre, _, post = step.seed._pack_shape
                pack = (b, pre, 2, post)
                ctx.update(
                    post=post,
                    src_re=self._full[i][0].reshape(pack),
                    src_im=self._full[i][1].reshape(pack),
                    dst_re=self._full[i + 1][0].reshape(pack),
                    dst_im=self._full[i + 1][1].reshape(pack),
                    p_bcast=ar.view(f"s{i}.a", (b, pre, 4, post), _RD),
                    q_bcast=ar.view(f"s{i}.b", (b, pre, 4, post), _RD),
                    p_cols=ar.view(f"s{i}.a", (4, b, pre, post), _RD),
                    q_cols=ar.view(f"s{i}.b", (4, b, pre, post), _RD),
                    p_cols2=ar.view(f"s{i}.a", (4, b * pre * post), _RD),
                    q_cols2=ar.view(f"s{i}.b", (4, b * pre * post), _RD),
                )
            elif step.kind == "phase_mask" and step.coeffs:
                ctx["sc"] = ar.view(f"s{i}.sc", full, _RD)
            self._ctx.append(ctx)

        self._ro = (ar.view("ro.a", full, _RD), ar.view("ro.b", full, _RD))

    # ------------------------------------------------------------------
    # Forward sweep
    # ------------------------------------------------------------------
    def run_forward(self, resolve) -> None:
        """Execute the plan from |0…0⟩ inside the arena; the final
        planes stay there until the next forward."""
        if obs.is_profiling():
            reg = obs.metrics()
            reg.counter("lower.planned.run").inc()
            with reg.scope("lower.planned.forward", n_qubits=self.n_qubits):
                for _ in self.forward_steps(resolve):
                    pass
        else:
            zero_planes_into(*self._full[0])
            gates = self.lowered._table.numpy(resolve)
            for i, step in enumerate(self.lowered.steps):
                self._fwd_step(i, step, gates)

    def forward_steps(self, resolve):
        """Run the forward sweep step by step, yielding each step's output
        planes (arena views, valid until the next step runs)."""
        zero_planes_into(*self._full[0])
        reg = obs.metrics() if obs.is_profiling() else None
        gates = self.lowered._table.numpy(resolve)
        for i, step in enumerate(self.lowered.steps):
            if reg is not None:
                with reg.timer("lower.planned.apply", kind=step.kind).time():
                    self._fwd_step(i, step, gates)
            else:
                self._fwd_step(i, step, gates)
            yield self._full[i + 1]

    def _fwd_step(self, i, step, gates):
        kind = step.kind
        if kind == "fused_1q":
            self._fwd_fused(i, step, gates)
        elif kind == "phase_mask":
            self._fwd_phase(i, step, gates.resolve)
        else:
            self._fwd_perm(i, step)

    # -- fused single-qubit runs --------------------------------------
    def _fwd_fused(self, i, step, gates):
        m = step.matrix(gates)
        if _row_gemm(m, self._ctx[i]["post"]):
            self._fused_cols(i, m)
        else:
            self._fused_bcast(i, m)

    def _fused_bcast(self, i, m) -> None:
        ctx = self._ctx[i]
        P, Q = ctx["p_bcast"], ctx["q_bcast"]
        P[:, :, 0:2] = ctx["src_re"]
        P[:, :, 2:4] = ctx["src_im"]
        np.matmul(m, P, out=Q)
        ctx["dst_re"][...] = Q[:, :, 0:2]
        ctx["dst_im"][...] = Q[:, :, 2:4]

    def _fused_cols(self, i, m) -> None:
        ctx = self._ctx[i]
        P, Q = ctx["p_cols"], ctx["q_cols"]
        sr, si = ctx["src_re"], ctx["src_im"]
        P[0] = sr[:, :, 0]
        P[1] = sr[:, :, 1]
        P[2] = si[:, :, 0]
        P[3] = si[:, :, 1]
        np.matmul(m, ctx["p_cols2"], out=ctx["q_cols2"])
        dr, di = ctx["dst_re"], ctx["dst_im"]
        dr[:, :, 0] = Q[0]
        dr[:, :, 1] = Q[1]
        di[:, :, 0] = Q[2]
        di[:, :, 1] = Q[3]

    # -- phase masks ---------------------------------------------------
    def _fwd_phase(self, i, step, resolve):
        sr, si = self._full[i]
        dr, di = self._full[i + 1]
        const = step.const
        if not step.coeffs:  # all-Z run: constant ±1 pattern
            np.multiply(sr, const, out=dr)
            np.multiply(si, const, out=di)
            return
        bshape = step.seed._bshape
        thetas = []
        for _, ref in step.coeffs:
            theta = _np_angle(resolve, ref)
            if theta.ndim:
                theta = theta.reshape((theta.shape[0],) + bshape)
            thetas.append(theta.astype(_RD))
        # Accumulate every θ·coeff term at the mask's full extent, whose
        # non-batch part was fixed at lowering: per-batch angles make the
        # batch extent theirs, shared angles leave it 1.
        lead = max((t.shape[0] for t in thetas if t.ndim), default=1)
        ms = (lead,) + step.mask_tail
        ar = self.arena
        T = ar.view(f"s{i}.t", ms, _RD)
        U = ar.view(f"s{i}.u", ms, _RD)
        np.multiply(thetas[0], step.coeffs[0][0], out=T)
        for theta, (coeff, _) in zip(thetas[1:], step.coeffs[1:]):
            np.multiply(theta, coeff, out=U)
            np.add(T, U, out=T)
        mre = ar.view(f"s{i}.c1", ms, _RD)
        mim = ar.view(f"s{i}.s1", ms, _RD)
        np.cos(T, out=mre)
        np.sin(T, out=mim)
        if const is not None:
            msc = (lead,) + step.scratch_tail
            mre2 = ar.view(f"s{i}.c2", msc, _RD)
            mim2 = ar.view(f"s{i}.s2", msc, _RD)
            np.multiply(mre, const, out=mre2)
            np.multiply(mim, const, out=mim2)
            mre, mim = mre2, mim2
        S = self._ctx[i]["sc"]
        np.multiply(sr, mre, out=dr)
        np.multiply(si, mim, out=S)
        np.subtract(dr, S, out=dr)
        np.multiply(sr, mim, out=di)
        np.multiply(si, mre, out=S)
        np.add(di, S, out=di)

    # -- permutations --------------------------------------------------
    def _fwd_perm(self, i, step):
        # mode="clip" keeps the gather allocation-free (mode="raise"
        # buffers a statevector-sized temp to validate indices); the
        # seed's precomputed index tables are in range by construction.
        src = step.seed._src
        s2, s2i = self._flat2[i]
        d2, d2i = self._flat2[i + 1]
        np.take(s2, src, axis=1, out=d2, mode="clip")
        np.take(s2i, src, axis=1, out=d2i, mode="clip")

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def final_planes(self):
        """The final ``(re, im)`` planes of the latest forward (views)."""
        return self._full[len(self.lowered.steps)]

    def z_expectations(self) -> np.ndarray:
        """Per-qubit ⟨Z⟩ of the final planes of the latest forward, as a
        fresh float64 ``(batch, n_qubits)`` array."""
        re, im = self.final_planes()
        p1, p2 = self._ro
        np.multiply(re, re, out=p1)
        np.multiply(im, im, out=p2)
        np.add(p1, p2, out=p1)
        n = self.n_qubits
        outputs = []
        for q in range(n):
            axes = tuple(ax for ax in range(1, n + 1) if ax != q + 1)
            marg = p1.sum(axis=axes) if axes else p1
            outputs.append(marg[:, 0] - marg[:, 1])
        return np.stack(outputs, axis=1).astype(np.float64)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Audit record: the memory plan and the arena footprint."""
        return {
            "batch": self.batch,
            "memory_plan": self.plan.describe(),
            "arena_bytes": self.arena.total_bytes,
        }
