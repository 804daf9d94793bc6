"""The lowered float32 tier: lowered plans and their in-place executor.

A :class:`LoweredPlan` wraps a frozen
:class:`~repro.torq.compile.ExecutionPlan` for the measured (tape-free)
path of ``QuantumLayer(precision="float32")`` and float32 serving:
forward statevector simulation, the ⟨Z⟩ readout and the adjoint reverse
sweep over *split real/imaginary planes* (two float32 arrays of shape
``(batch, 2, ..., 2)``).  State-sized work runs in float32/complex64; all
parameter-space algebra (2×2 factor matrices, prefix/suffix products,
gradient contractions against the overlap matrix) stays float64, so the
deviation from the float64 seed plan is bounded by the documented
budgets (:mod:`repro.lower.budget`).  The factor matrices come from the
gate table of the seed steps (one cos and one sin per sweep), as in the
seed plan's adjoint sweep.

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
carriers — plane ping-pongs, SoA pack buffers, phase-mask scratches,
the readout scratch, complex adjoint carriers, the observable mask — are
declared as :class:`~repro.lower.memplan.BufferSpec` live intervals over
one virtual timeline (init, forward steps, readout, adjoint init,
reverse steps) and assigned to shared arena slots by the liveness
planner when the execution is constructed.  From then on forward,
readout and adjoint run **without allocating a single statevector-sized
array**.  The adjoint packs the complex carriers into real
``(batch, 4, pre·post)`` buffers so un-apply is one real GEMM and the
overlap matrix one batched GEMM.

:meth:`PlannedExecution.run_forward` returns the final planes as
:class:`Planes` — arena views stamped with the run that wrote them.
They are valid until the next forward on the same bound execution;
:meth:`PlannedExecution.holds` tells whether the arena still holds them.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..torq import compile as torq_compile
from ..torq.adjoint import _GradientSums, _z_weight_mask_into
from ..torq.compile import _np_angle, _overlap_grad, _real_block, _row_gemm
from ..torq.state import zero_planes_into
from .memplan import Arena, BufferSpec, plan_buffers

__all__ = ["LoweredPlan", "PlannedExecution", "Planes"]

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

    __slots__ = ("coeffs", "const", "coeff_flat", "const_flat",
                 "mask_tail", "scratch_tail")

    def __init__(self, seed):
        super().__init__(seed)
        self.coeffs = tuple((c.astype(_RD), ref) for c, ref in seed._terms)
        c, cf, kf = seed._const, seed._coeff_flat, seed._const_flat
        self.const = None if c is None else c.astype(_RD)
        self.coeff_flat = None if cf is None else cf.astype(_RD)
        self.const_flat = None if kf is None else kf.astype(_CD)
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

    Produced by :func:`repro.lower.lower_plan`.  :meth:`run_planes`
    (forward), :meth:`z_expectations` (readout) and :meth:`adjoint_vjp`
    (all-parameter gradients) run through the :class:`PlannedExecution`
    bound to the batch size.  A plan keeps one bound execution per batch
    size it has served, for its lifetime, so a fixed set of batch sizes
    — a serving bucket ladder, a training batch — binds each arena
    exactly once.  :meth:`amplitudes` and :meth:`memory_report` serve
    tests and inspection.
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

    def run_planes(self, batch: int, resolve) -> "Planes":
        """Forward statevector simulation from |0…0⟩, in place.

        Returns the final float32 ``(re, im)`` planes: views into the
        arena of the execution bound to ``batch``, stamped with the run
        that wrote them and valid until the next forward at the same
        batch size.  ``resolve`` maps flat parameter indices to floats /
        ``(batch,)`` arrays (Tensors are unwrapped).
        """
        return self.planned_execution(batch).run_forward(resolve)

    def amplitudes(self, planes) -> np.ndarray:
        """Flat complex64 amplitudes ``(batch, 2**n)``."""
        re, im = planes
        flat = (-1, 2 ** self.n_qubits)
        out = np.empty((re.shape[0], 2 ** self.n_qubits), dtype=_CD)
        out.real = re.reshape(flat)
        out.imag = im.reshape(flat)
        return out

    def z_expectations(self, planes) -> np.ndarray:
        """Per-qubit ⟨Z⟩ of a forward's planes, ``(batch, n_qubits)``.

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
        :func:`repro.torq.adjoint.adjoint_state_vjp`, with the same
        gradient bookkeeping: carriers are float32/complex64, returned
        gradients float64 (a float per shared parameter, ``(batch,)`` per
        per-batch parameter).  ``planes`` (from :meth:`run_planes` with
        the same ``values``) skips the forward while the arena still
        holds it; once a later forward at this batch size has overwritten
        the arena, the forward for ``values`` is re-run in place first,
        so the gradient always belongs to ``values``.
        """
        grads = _GradientSums(values, weights, self.n_qubits)
        batch = grads.batch
        if planes is not None and planes[0].shape[0] != batch:
            raise ValueError(
                f"final state batch {planes[0].shape[0]} != weights batch {batch}"
            )

        def resolve(i: int):
            return values[i]

        pe = self.planned_execution(batch)
        profiling = obs.is_profiling()
        if planes is None or not pe.holds(planes):
            if planes is not None and profiling:
                obs.metrics().counter("lower.planned.rerun").inc()
            pe.run_forward(resolve)
        if profiling:
            reg = obs.metrics()
            reg.counter("lower.adjoint.sweep").inc()
            with reg.scope("lower.adjoint.run", n_qubits=self.n_qubits):
                pe.adjoint_sweep(resolve, grads.weights, grads.accumulate)
        else:
            pe.adjoint_sweep(resolve, grads.weights, grads.accumulate)
        return grads.gradients()

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

class Planes(tuple):
    """The ``(re, im)`` final planes of one forward run — arena views —
    stamped with the run number that wrote them."""

    def __new__(cls, re, im, run: int):
        self = super().__new__(cls, (re, im))
        self.run = run
        return self


class PlannedExecution:
    """One lowered plan bound to one batch size, executing in place.

    Construction plans the arena and binds every view.  ``runs`` counts
    forward sweeps, so a caller holding :class:`Planes` can tell whether
    the arena still holds them (:meth:`holds`).
    """

    def __init__(self, lowered: LoweredPlan, batch: int):
        self.lowered = lowered
        self.batch = int(batch)
        self.n_qubits = int(lowered.n_qubits)
        self.dim = 2 ** self.n_qubits
        self.runs = 0
        self._build()

    # ------------------------------------------------------------------
    # Bind time: liveness specs, arena, bound views
    # ------------------------------------------------------------------
    def _build(self) -> None:
        steps = self.lowered.steps
        K = len(steps)
        b, n, dim = self.batch, self.n_qubits, self.dim
        plane = b * dim * _RD.itemsize
        cstate = b * dim * _CD.itemsize
        full = (b,) + (2,) * n
        ro_pos = K + 1
        a0_pos = K + 2
        end = a0_pos + 1 + K

        specs: list[BufferSpec] = []
        for v in range(K + 1):
            last = end if v == K else v + 1  # final planes: user-visible
            specs.append(BufferSpec(f"p{v}.re", plane, v, last))
            specs.append(BufferSpec(f"p{v}.im", plane, v, last))

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
        specs.append(BufferSpec("adj.m64", b * dim * 8, a0_pos, a0_pos))
        specs.append(BufferSpec("adj.m32", plane, a0_pos, a0_pos))

        def adj_pos(v: int) -> int:
            # Carrier v (the state before step v) is written while step v
            # is reverse-processed; carrier K at adjoint init.
            return a0_pos if v == K else a0_pos + 1 + (K - 1 - v)

        for v in range(K + 1):
            pos = adj_pos(v)
            last = pos if v == 0 else pos + 1
            specs.append(BufferSpec(f"a{v}.psi", cstate, pos, last))
            specs.append(BufferSpec(f"a{v}.mu", cstate, pos, last))
        for j, step in enumerate(steps):
            pos = adj_pos(j)
            if step.kind == "fused_1q":
                for suffix in ("pp", "pm", "qp", "qm"):
                    specs.append(
                        BufferSpec(f"r{j}.{suffix}", 2 * plane, pos, pos)
                    )
            elif step.kind == "phase_mask" and step.seed._term_refs:
                specs.append(BufferSpec(f"r{j}.w", plane, pos, pos))
                specs.append(BufferSpec(f"r{j}.w2", plane, pos, pos))
                specs.append(BufferSpec(f"r{j}.t", plane, pos, pos))
                specs.append(BufferSpec(f"r{j}.m", cstate, pos, pos))

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

        self._mask64 = ar.view("adj.m64", full, np.float64)
        self._mask32 = ar.view("adj.m32", (b, dim), _RD)
        self._adj_psi = [ar.view(f"a{v}.psi", (b, dim), _CD)
                         for v in range(K + 1)]
        self._adj_mu = [ar.view(f"a{v}.mu", (b, dim), _CD)
                        for v in range(K + 1)]
        self._adj_ctx: list[dict] = []
        for j, step in enumerate(steps):
            actx: dict = {}
            if step.kind == "fused_1q":
                _, pre, _, post = step.seed._pack_shape
                R = pre * post
                pack = (b, pre, 2, post)
                actx.update(
                    in_psi=self._adj_psi[j + 1].reshape(pack),
                    in_mu=self._adj_mu[j + 1].reshape(pack),
                    out_psi=self._adj_psi[j].reshape(pack),
                    out_mu=self._adj_mu[j].reshape(pack),
                    pp=ar.view(f"r{j}.pp", (b, 4, pre, post), _RD),
                    pm=ar.view(f"r{j}.pm", (b, 4, pre, post), _RD),
                    qp=ar.view(f"r{j}.qp", (b, 4, pre, post), _RD),
                    qm=ar.view(f"r{j}.qm", (b, 4, pre, post), _RD),
                    pp2=ar.view(f"r{j}.pp", (b, 4, R), _RD),
                    pm2=ar.view(f"r{j}.pm", (b, 4, R), _RD),
                    qp2=ar.view(f"r{j}.qp", (b, 4, R), _RD),
                    qm2=ar.view(f"r{j}.qm", (b, 4, R), _RD),
                )
            self._adj_ctx.append(actx)

    # ------------------------------------------------------------------
    # Forward sweep
    # ------------------------------------------------------------------
    def run_forward(self, resolve) -> Planes:
        """Execute the plan from |0…0⟩ inside the arena.

        Returns the final planes as full-shape arena views stamped with
        this run — valid until the next forward on this bound execution.
        """
        if obs.is_profiling():
            reg = obs.metrics()
            reg.counter("lower.planned.run").inc()
            with reg.scope("lower.planned.forward", n_qubits=self.n_qubits):
                for _ in self.forward_steps(resolve):
                    pass
        else:
            self._begin()
            gates = self.lowered._table.numpy(resolve)
            for i, step in enumerate(self.lowered.steps):
                self._fwd_step(i, step, gates)
        return Planes(*self.final_planes(), self.runs)

    def forward_steps(self, resolve):
        """Run the forward sweep step by step, yielding each step's output
        planes (arena views, valid until the next step runs)."""
        self._begin()
        reg = obs.metrics() if obs.is_profiling() else None
        gates = self.lowered._table.numpy(resolve)
        for i, step in enumerate(self.lowered.steps):
            if reg is not None:
                with reg.timer("lower.planned.apply", kind=step.kind).time():
                    self._fwd_step(i, step, gates)
            else:
                self._fwd_step(i, step, gates)
            yield self._full[i + 1]

    def _begin(self) -> None:
        self.runs += 1
        zero_planes_into(*self._full[0])

    def holds(self, planes) -> bool:
        """Whether the arena still holds ``planes`` — the final planes
        of this execution's latest forward run."""
        return (
            isinstance(planes, Planes)
            and planes.run == self.runs
            and planes[0] is self.final_planes()[0]
        )

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
        return self._full[len(self.lowered.steps)]

    def z_expectations(self) -> np.ndarray:
        """Per-qubit ⟨Z⟩ of the planes currently in the arena."""
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
        return np.stack(outputs, axis=1)

    # ------------------------------------------------------------------
    # Adjoint reverse sweep
    # ------------------------------------------------------------------
    def adjoint_sweep(self, resolve, weights: np.ndarray, accumulate) -> None:
        """Un-apply every step in reverse over the arena carriers.

        ``weights`` is the float64 ``(batch, n_qubits)`` readout
        cotangent.  The caller (:meth:`LoweredPlan.adjoint_vjp`) makes
        sure the arena holds the forward being differentiated.
        """
        steps = self.lowered.steps
        K = len(steps)
        fre2, fim2 = self._flat2[K]
        psi, mu = self._adj_psi[K], self._adj_mu[K]
        psi.real[...] = fre2
        psi.imag[...] = fim2
        _z_weight_mask_into(weights, self.n_qubits, self._mask64)
        np.copyto(self._mask32, self._mask64.reshape(self.batch, self.dim))
        np.multiply(psi, self._mask32, out=mu)
        gates = self.lowered._table.numpy(resolve)
        for j in range(K - 1, -1, -1):
            step = steps[j]
            kind = step.kind
            if kind == "fused_1q":
                self._adj_fused(j, step, gates, accumulate)
            elif kind == "phase_mask":
                self._adj_phase(j, step, resolve, accumulate)
            else:
                self._adj_perm(j, step)

    def _adj_fused(self, j, step, gates, accumulate):
        s = step.seed
        ctx = self._adj_ctx[j]
        if s._const_np_dag is not None:
            udag, derivatives = s._const_np_dag, None
        else:
            udag, derivatives = gates.derivatives(s)
        m44 = _real_block(udag).astype(_RD)
        if m44.ndim == 4:
            m44 = m44.reshape(-1, 4, 4)
        pz, mz = ctx["in_psi"], ctx["in_mu"]
        Pp, Pm = ctx["pp"], ctx["pm"]
        Pp[:, 0] = pz.real[:, :, 0]
        Pp[:, 1] = pz.real[:, :, 1]
        Pp[:, 2] = pz.imag[:, :, 0]
        Pp[:, 3] = pz.imag[:, :, 1]
        Pm[:, 0] = mz.real[:, :, 0]
        Pm[:, 1] = mz.real[:, :, 1]
        Pm[:, 2] = mz.imag[:, :, 0]
        Pm[:, 3] = mz.imag[:, :, 1]
        np.matmul(m44, ctx["pp2"], out=ctx["qp2"])
        np.matmul(m44, ctx["pm2"], out=ctx["qm2"])
        Qp, Qm = ctx["qp"], ctx["qm"]
        opz, omz = ctx["out_psi"], ctx["out_mu"]
        opz.real[:, :, 0] = Qp[:, 0]
        opz.real[:, :, 1] = Qp[:, 1]
        opz.imag[:, :, 0] = Qp[:, 2]
        opz.imag[:, :, 1] = Qp[:, 3]
        omz.real[:, :, 0] = Qm[:, 0]
        omz.real[:, :, 1] = Qm[:, 1]
        omz.imag[:, :, 0] = Qm[:, 2]
        omz.imag[:, :, 1] = Qm[:, 3]
        if derivatives is None:
            return
        # Overlap e_bij = Σ_R conj(μ)[b,i,R]·ψ_prev[b,j,R], assembled
        # from one real batched GEMM over the packed rows
        # [re0, re1, im0, im1]: Re(e) = rr + ii, Im(e) = ri − ir.
        E = np.matmul(ctx["pm2"], ctx["qp2"].transpose(0, 2, 1))
        er = E[:, :2, :2] + E[:, 2:, 2:]
        ei = E[:, :2, 2:] - E[:, 2:, :2]
        e = (er + 1j * ei).astype(np.complex128)
        for ref, d in derivatives:
            accumulate(ref, _overlap_grad(d, e))

    def _adj_phase(self, j, step, resolve, accumulate):
        s = step.seed
        ar = self.arena
        b, dim = self.batch, self.dim
        pin, min_ = self._adj_psi[j + 1], self._adj_mu[j + 1]
        pout, mout = self._adj_psi[j], self._adj_mu[j]
        if s._term_refs:
            W = ar.view(f"r{j}.w", (b, dim), _RD)
            W2 = ar.view(f"r{j}.w2", (b, dim), _RD)
            np.multiply(pin.real, min_.imag, out=W)
            np.multiply(pin.imag, min_.real, out=W2)
            np.subtract(W, W2, out=W)
            g = 2.0 * (W @ step.coeff_flat.T)
            g64 = np.asarray(g, dtype=np.float64)
            for t, ref in enumerate(s._term_refs):
                accumulate(ref, g64[:, t])
            vals = [
                np.asarray(_np_angle(resolve, ref), dtype=_RD)
                for ref in s._term_refs
            ]
            if any(v.ndim for v in vals):
                thetas = np.stack(
                    [np.broadcast_to(v, (b,)) for v in vals], axis=1
                )
                total = ar.view(f"r{j}.t", (b, dim), _RD)
                np.matmul(thetas, step.coeff_flat, out=total)
            else:
                total = ar.view(f"r{j}.t", (dim,), _RD)
                np.matmul(np.asarray(vals), step.coeff_flat, out=total)
            mask = ar.view(f"r{j}.m", total.shape, _CD)
            np.cos(total, out=mask.real)
            np.sin(total, out=mask.imag)
            np.negative(mask.imag, out=mask.imag)
            if step.const_flat is not None:
                np.multiply(mask, step.const_flat, out=mask)
        else:
            mask = step.const_flat
        np.multiply(pin, mask, out=pout)
        np.multiply(min_, mask, out=mout)

    def _adj_perm(self, j, step):
        inv = step.seed._inv_src
        np.take(self._adj_psi[j + 1], inv, axis=1,
                out=self._adj_psi[j], mode="clip")
        np.take(self._adj_mu[j + 1], inv, axis=1,
                out=self._adj_mu[j], mode="clip")

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Audit record: the memory plan and the arena footprint."""
        return {
            "batch": self.batch,
            "memory_plan": self.plan.describe(),
            "arena_bytes": self.arena.total_bytes,
        }
