"""In-place planned execution of lowered plans over preallocated arenas.

:class:`PlannedExecution` is the one executor of a
:class:`~repro.lower.plan_exec.LoweredPlan`.  It binds the plan to a
concrete batch size and executes the forward sweep, the ⟨Z⟩ readout, and
(on the float32 tier) the adjoint reverse sweep **without allocating a
single statevector-sized array after the first run**.  All carriers —
plane ping-pongs, SoA pack buffers, phase-mask scratches, complex adjoint
carriers, the observable mask — are declared up front as
:class:`~repro.lower.memplan.BufferSpec` live intervals over one virtual
timeline (init, forward steps, readout, adjoint init, reverse steps) and
assigned to shared arena slots by the liveness planner.  Re-running a
bound execution touches only the arena.

Correctness contract (mirrors :mod:`repro.lower.plan_exec`):

* **float64** — every planned kernel performs the seed's elementwise /
  GEMM / gather arithmetic with ``out=`` destinations (bitwise identical
  to the allocating forms), so plane *values* are bitwise equal to the
  seed executor whatever buffer layout they sit in.  The one place
  layout itself is load-bearing is the ⟨Z⟩ readout: summation order
  follows the memory layout of the probability array, and the seed
  layout is the end product of NumPy's ufunc layout propagation across
  the whole circuit (gathers emit batch-fastest strides, full-shape
  masks snap back to C order, partial broadcasts produce mixed orders).
  Rather than re-implement that heuristic, the first run *probes* it:
  one allocating forward records the strides of ``re·re + im·im``, and
  the arena's readout scratch is laid out with exactly those strides —
  same values in the same memory order, bitwise-identical reduction.
  The float64 **adjoint** runs the seed kernels unchanged (their exact
  allocation/ufunc sequence is the bitwise contract), so the in-place
  adjoint applies to the float32 tier only — where the speed and the
  memory ceiling live.
* **Fused runs** pack the planes into SoA form and run one real 4×4
  GEMM: broadcast over ``(batch, pre, 4, post)`` (``bcast``), or — for a
  batch-independent matrix over a short ``post`` extent, where the
  broadcast form degenerates into many tiny GEMMs
  (:func:`repro.torq.compile._row_gemm`) — one GEMM over every row:
  ``(batch·pre·post, 4) @ mᵀ`` at float64, the seed's own product
  (``rows``), and ``m @ (4, batch·pre·post)`` at float32 (``cols``).
* **float32** — the readout scratch is C-ordered.  The adjoint packs
  the complex carriers into real ``(batch, 4, pre·post)`` buffers so
  un-apply is one real GEMM and the overlap matrix one batched GEMM.
  Deviation stays within the documented float32 budgets.

Steps the planner cannot execute in place (unfused ``gate`` steps — rare
leftovers the compiler could not fuse) fall back to the allocating
kernel plus one copy into the arena; they are listed in
:meth:`PlannedExecution.describe` under ``fallback_steps``.

:meth:`PlannedExecution.run_forward` returns the final planes as
:class:`Planes` — arena views stamped with the run that wrote them.
They are valid until the next forward on the same bound execution;
:meth:`PlannedExecution.holds` tells whether the arena still holds them.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..torq import compile as torq_compile
from ..torq.adjoint import _z_weight_mask_into
from ..torq.state import zero_planes_into, zero_state
from .memplan import Arena, BufferSpec, plan_buffers
from .plan_exec import _bcast, _block44, _np_value

__all__ = ["PlannedExecution", "Planes"]


def _span_bytes(shape: tuple, strides: tuple, itemsize: int) -> int:
    """Bytes a positively-strided view of ``shape`` spans in its base."""
    if any(s < 0 for s in strides):
        raise ValueError("negative strides cannot back an arena view")
    return sum(s * (d - 1) for s, d in zip(strides, shape)) + itemsize


class Planes(tuple):
    """The ``(re, im)`` final planes of one forward run — arena views —
    stamped with the run number that wrote them."""

    def __new__(cls, re, im, run: int):
        self = super().__new__(cls, (re, im))
        self.run = run
        return self


class PlannedExecution:
    """One lowered plan bound to one batch size, executing in place.

    Construction is cheap; the arena (liveness plan, slot buffers, bound
    views, float64 seed layout probe) is built lazily on the first
    :meth:`run_forward` — the probe needs resolved parameter values.
    ``runs`` counts forward sweeps, so a caller holding :class:`Planes`
    can tell whether the arena still holds them (:meth:`holds`).
    """

    def __init__(self, lowered, batch: int):
        self.lowered = lowered
        self.batch = int(batch)
        self.n_qubits = int(lowered.n_qubits)
        self.dim = 2 ** self.n_qubits
        self.rdtype = np.dtype(lowered.rdtype)
        self.cdtype = np.dtype(lowered.cdtype)
        self.f64 = self.rdtype == np.float64
        self.runs = 0
        self._fallback_steps: list[int] = []
        self._built = False

    # ------------------------------------------------------------------
    # Bind time: seed layout probe, liveness specs, arena, bound views
    # ------------------------------------------------------------------
    def _probe_readout_strides(self, resolve) -> tuple:
        """Strides of the seed readout's probability array (float64).

        Runs the allocating per-step forward once (the only allocating
        run this bound execution ever performs) and records the layout
        of ``re·re + im·im`` — the array whose memory order fixes the
        readout's reduction order, and with it float64 bitwise equality.
        """
        base = zero_state(self.batch, self.n_qubits, dtype=self.rdtype)
        re = base.tensor.re.data
        im = base.tensor.im.data
        for step in self.lowered.steps:
            re, im = step.forward(re, im, resolve)
        probs = re * re + im * im
        return probs.strides

    def _ensure(self, resolve) -> None:
        if self._built:
            return
        # Only the float64 readout order is load-bearing; float32 reads
        # out of C-ordered scratch.
        self._build(self._probe_readout_strides(resolve) if self.f64 else None)
        self._built = True

    def _build(self, ro_strides: tuple | None) -> None:
        steps = self.lowered.steps
        K = len(steps)
        b, n, dim = self.batch, self.n_qubits, self.dim
        rd, cd = self.rdtype, self.cdtype
        plane = b * dim * rd.itemsize
        cstate = b * dim * cd.itemsize
        full = (b,) + (2,) * n
        ro_pos = K + 1
        a0_pos = K + 2
        end = a0_pos + 1 + K
        plane_adjoint = not self.f64

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
            elif step.kind == "phase_mask" and step._coeffs:
                shapes = [c.shape for c, _ in step._coeffs]
                if step._const is not None:
                    shapes.append(step._const.shape)
                wc = (b,) + np.broadcast_shapes(*shapes)[1:]
                wc_bytes = int(np.prod(wc)) * rd.itemsize
                for suffix in ("t", "u", "c1", "s1", "c2", "s2"):
                    specs.append(
                        BufferSpec(f"s{i}.{suffix}", wc_bytes, pos, pos)
                    )
                specs.append(BufferSpec(f"s{i}.sc", plane, pos, pos))

        ro_bytes = (plane if ro_strides is None
                    else _span_bytes(full, ro_strides, rd.itemsize))
        specs.append(BufferSpec("ro.a", ro_bytes, ro_pos, ro_pos))
        specs.append(BufferSpec("ro.b", ro_bytes, ro_pos, ro_pos))

        if plane_adjoint:
            mask64 = b * dim * 8
            specs.append(BufferSpec("adj.m64", mask64, a0_pos, a0_pos))
            specs.append(BufferSpec("adj.m32", plane, a0_pos, a0_pos))

            def adj_pos(v: int) -> int:
                # Carrier v (the state before step v) is written while
                # step v is reverse-processed; carrier K at adjoint init.
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

        # Every plane is C-contiguous: elementwise kernels, gathers and
        # GEMMs produce identical *values* whatever the buffer layout,
        # and only the readout scratch below is layout-sensitive.
        self._full = [
            (ar.view(f"p{v}.re", full, rd), ar.view(f"p{v}.im", full, rd))
            for v in range(K + 1)
        ]
        self._flat2 = [
            (ar.view(f"p{v}.re", (b, dim), rd),
             ar.view(f"p{v}.im", (b, dim), rd))
            for v in range(K + 1)
        ]

        self._ctx: list[dict] = []
        for i, step in enumerate(steps):
            ctx: dict = {}
            if step.kind == "fused_1q":
                _, pre, _, post = step.seed._pack_shape
                R = pre * post
                pack = (b, pre, 2, post)
                ctx.update(
                    post=post,
                    src_re=self._full[i][0].reshape(pack),
                    src_im=self._full[i][1].reshape(pack),
                    dst_re=self._full[i + 1][0].reshape(pack),
                    dst_im=self._full[i + 1][1].reshape(pack),
                    p_bcast=ar.view(f"s{i}.a", (b, pre, 4, post), rd),
                    q_bcast=ar.view(f"s{i}.b", (b, pre, 4, post), rd),
                    p_cols=ar.view(f"s{i}.a", (4, b, pre, post), rd),
                    q_cols=ar.view(f"s{i}.b", (4, b, pre, post), rd),
                    p_cols2=ar.view(f"s{i}.a", (4, b * R), rd),
                    q_cols2=ar.view(f"s{i}.b", (4, b * R), rd),
                    p_rows=ar.view(f"s{i}.a", (b, pre, post, 4), rd),
                    q_rows=ar.view(f"s{i}.b", (b, pre, post, 4), rd),
                    p_rows2=ar.view(f"s{i}.a", (b * R, 4), rd),
                    q_rows2=ar.view(f"s{i}.b", (b * R, 4), rd),
                )
            elif step.kind == "phase_mask":
                if step._coeffs:
                    ctx["sc"] = ar.view(f"s{i}.sc", full, rd)
            elif step.kind == "gate":
                if i not in self._fallback_steps:
                    self._fallback_steps.append(i)
            self._ctx.append(ctx)

        # Readout scratch with the seed-probed strides: same values in
        # the same memory order → the same pairwise reduction → bitwise.
        self._ro = tuple(
            ar.view(name, full, rd) if ro_strides is None
            else ar.strided_view(name, full, rd, ro_strides)
            for name in ("ro.a", "ro.b")
        )

        if plane_adjoint:
            self._mask64 = ar.view("adj.m64", full, np.float64)
            self._mask32 = ar.view("adj.m32", (b, dim), rd)
            self._adj_psi = [ar.view(f"a{v}.psi", (b, dim), cd)
                             for v in range(K + 1)]
            self._adj_mu = [ar.view(f"a{v}.mu", (b, dim), cd)
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
                        pp=ar.view(f"r{j}.pp", (b, 4, pre, post), rd),
                        pm=ar.view(f"r{j}.pm", (b, 4, pre, post), rd),
                        qp=ar.view(f"r{j}.qp", (b, 4, pre, post), rd),
                        qm=ar.view(f"r{j}.qm", (b, 4, pre, post), rd),
                        pp2=ar.view(f"r{j}.pp", (b, 4, R), rd),
                        pm2=ar.view(f"r{j}.pm", (b, 4, R), rd),
                        qp2=ar.view(f"r{j}.qp", (b, 4, R), rd),
                        qm2=ar.view(f"r{j}.qm", (b, 4, R), rd),
                    )
                elif step.kind == "gate":
                    actx.update(
                        in_psi_full=self._adj_psi[j + 1].reshape(full),
                        in_mu_full=self._adj_mu[j + 1].reshape(full),
                        out_psi_full=self._adj_psi[j].reshape(full),
                        out_mu_full=self._adj_mu[j].reshape(full),
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
            reg.counter(
                "lower.planned.run", precision=self.lowered.precision
            ).inc()
            with reg.scope("lower.planned.forward", n_qubits=self.n_qubits):
                for _ in self.forward_steps(resolve):
                    pass
        else:
            self._begin(resolve)
            for i, step in enumerate(self.lowered.steps):
                self._fwd_step(i, step, resolve)
        return Planes(*self.final_planes(), self.runs)

    def forward_steps(self, resolve):
        """Run the forward sweep step by step, yielding each step's output
        planes (arena views, valid until the next step runs)."""
        self._begin(resolve)
        reg = obs.metrics() if obs.is_profiling() else None
        for i, step in enumerate(self.lowered.steps):
            if reg is not None:
                with reg.timer("lower.planned.apply", kind=step.kind).time():
                    self._fwd_step(i, step, resolve)
            else:
                self._fwd_step(i, step, resolve)
            yield self._full[i + 1]

    def _begin(self, resolve) -> None:
        self._ensure(resolve)
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

    def _fwd_step(self, i, step, resolve):
        kind = step.kind
        if kind == "fused_1q":
            self._fwd_fused(i, step, resolve)
        elif kind == "phase_mask":
            self._fwd_phase(i, step, resolve)
        elif kind == "permutation":
            self._fwd_perm(i, step)
        else:
            self._fwd_gate(i, step, resolve)

    # -- fused single-qubit runs --------------------------------------
    def _fwd_fused(self, i, step, resolve):
        m = step._matrix(resolve)
        # float64 performs the seed's exact GEMM (row or broadcast, by the
        # seed's own predicate) with out= destinations (bitwise); float32
        # runs the row case as one column GEMM.
        if not torq_compile._row_gemm(m, self._ctx[i]["post"]):
            self._fused_bcast(i, m)
        elif self.f64:
            self._fused_rows(i, m)
        else:
            self._fused_cols(i, m)

    def _fused_bcast(self, i, m) -> None:
        ctx = self._ctx[i]
        P, Q = ctx["p_bcast"], ctx["q_bcast"]
        P[:, :, 0:2] = ctx["src_re"]
        P[:, :, 2:4] = ctx["src_im"]
        np.matmul(m, P, out=Q)
        ctx["dst_re"][...] = Q[:, :, 0:2]
        ctx["dst_im"][...] = Q[:, :, 2:4]

    def _fused_rows(self, i, m) -> None:
        ctx = self._ctx[i]
        P, Q = ctx["p_rows"], ctx["q_rows"]
        P[..., 0:2] = ctx["src_re"].transpose(0, 1, 3, 2)
        P[..., 2:4] = ctx["src_im"].transpose(0, 1, 3, 2)
        np.matmul(ctx["p_rows2"], m.T, out=ctx["q_rows2"])
        ctx["dst_re"][...] = Q[..., 0:2].transpose(0, 1, 3, 2)
        ctx["dst_im"][...] = Q[..., 2:4].transpose(0, 1, 3, 2)

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
        ar = self.arena
        coeffs = step._coeffs
        const = step._const
        sr, si = self._full[i]
        dr, di = self._full[i + 1]
        if not coeffs:  # all-Z run: constant ±1 pattern
            np.multiply(sr, const, out=dr)
            np.multiply(si, const, out=di)
            return
        bshape = step.seed._bshape
        terms = []
        for coeff, ref in coeffs:
            theta = _bcast(_np_value(resolve, ref), bshape)
            if not self.f64:
                theta = theta.astype(self.rdtype)
            terms.append((theta, coeff))
        # Accumulate every θ·coeff term at the *final* broadcast shape:
        # broadcasting repeats values exactly, so the elementwise sums
        # (and hence the float64 tier) match the seed's grow-as-you-add
        # accumulation bitwise — without its per-term reallocations.
        ms = np.broadcast_shapes(
            *(np.broadcast_shapes(t.shape, c.shape) for t, c in terms)
        )
        T = ar.view(f"s{i}.t", ms, self.rdtype)
        U = ar.view(f"s{i}.u", ms, self.rdtype)
        t0, c0 = terms[0]
        np.multiply(np.broadcast_to(t0, ms), np.broadcast_to(c0, ms), out=T)
        for t, c in terms[1:]:
            np.multiply(np.broadcast_to(t, ms), np.broadcast_to(c, ms),
                        out=U)
            np.add(T, U, out=T)
        mre = ar.view(f"s{i}.c1", ms, self.rdtype)
        mim = ar.view(f"s{i}.s1", ms, self.rdtype)
        np.cos(T, out=mre)
        np.sin(T, out=mim)
        if const is not None:
            msc = np.broadcast_shapes(ms, const.shape)
            mre2 = ar.view(f"s{i}.c2", msc, self.rdtype)
            mim2 = ar.view(f"s{i}.s2", msc, self.rdtype)
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

    # -- unfused gates (allocating fallback) ---------------------------
    def _fwd_gate(self, i, step, resolve):
        res_re, res_im = step.forward(*self._full[i], resolve)
        dr, di = self._full[i + 1]
        dr[...] = res_re
        di[...] = res_im

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
    # Adjoint reverse sweep (float32 tier)
    # ------------------------------------------------------------------
    def adjoint_sweep(self, resolve, weights: np.ndarray, accumulate) -> None:
        """Un-apply every step in reverse over the arena carriers.

        Float32 tier only — the float64 tier's adjoint is pinned to the
        seed kernels for bitwise equality and handled by the caller.
        The caller (:meth:`LoweredPlan.adjoint_vjp`) makes sure the
        arena holds the forward being differentiated.
        """
        if self.f64:
            raise RuntimeError("in-place adjoint sweep is float32-only")
        steps = self.lowered.steps
        K = len(steps)
        fre2, fim2 = self._flat2[K]
        psi, mu = self._adj_psi[K], self._adj_mu[K]
        psi.real[...] = fre2
        psi.imag[...] = fim2
        weights = np.asarray(weights, dtype=np.float64)
        _z_weight_mask_into(weights, self.n_qubits, self._mask64)
        np.copyto(self._mask32, self._mask64.reshape(self.batch, self.dim))
        np.multiply(psi, self._mask32, out=mu)
        for j in range(K - 1, -1, -1):
            step = steps[j]
            kind = step.kind
            if kind == "fused_1q":
                self._adj_fused(j, step, resolve, accumulate)
            elif kind == "phase_mask":
                self._adj_phase(j, step, resolve, accumulate)
            elif kind == "permutation":
                self._adj_perm(j, step)
            else:
                self._adj_gate(j, step, resolve, accumulate)

    def _adj_fused(self, j, step, resolve, accumulate):
        s = step.seed
        ctx = self._adj_ctx[j]
        if s._const_np_dag is not None:
            udag = s._const_np_dag
            mats = prefixes = None
        else:
            eye = np.eye(2, dtype=np.complex128)
            mats = []
            for kind, payload in s._factors:
                if kind == "const":
                    mats.append((payload, None, None))
                else:
                    u, du = torq_compile._np_factor_mats(
                        kind, _np_value(resolve, payload)
                    )
                    mats.append((u, du, payload))
            prefixes = [eye]
            for u, _, _ in mats:
                prefixes.append(np.matmul(u, prefixes[-1]))
            udag = torq_compile._np_dagger(prefixes[-1])
        m44 = _block44(udag).astype(self.rdtype)
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
        if mats is None:
            return
        # Overlap e_bij = Σ_R conj(μ)[b,i,R]·ψ_prev[b,j,R], assembled
        # from one real batched GEMM over the packed rows
        # [re0, re1, im0, im1]: Re(e) = rr + ii, Im(e) = ri − ir.
        E = np.matmul(ctx["pm2"], ctx["qp2"].transpose(0, 2, 1))
        er = E[:, :2, :2] + E[:, 2:, 2:]
        ei = E[:, :2, 2:] - E[:, 2:, :2]
        e = (er + 1j * ei).astype(np.complex128)
        suffix = np.eye(2, dtype=np.complex128)
        for t in range(len(mats) - 1, -1, -1):
            u, du, ref = mats[t]
            if ref is not None:
                d = np.matmul(suffix, np.matmul(du, prefixes[t]))
                if d.ndim == 2:
                    g = 2.0 * np.real(np.einsum("ij,bij->b", d, e))
                else:
                    g = 2.0 * np.real(np.einsum("bij,bij->b", d, e))
                accumulate(ref, g)
            suffix = np.matmul(suffix, u)

    def _adj_phase(self, j, step, resolve, accumulate):
        s = step.seed
        ar = self.arena
        b, dim = self.batch, self.dim
        pin, min_ = self._adj_psi[j + 1], self._adj_mu[j + 1]
        pout, mout = self._adj_psi[j], self._adj_mu[j]
        if s._term_refs:
            W = ar.view(f"r{j}.w", (b, dim), self.rdtype)
            W2 = ar.view(f"r{j}.w2", (b, dim), self.rdtype)
            np.multiply(pin.real, min_.imag, out=W)
            np.multiply(pin.imag, min_.real, out=W2)
            np.subtract(W, W2, out=W)
            g = 2.0 * (W @ step._coeff_flat.T)
            g64 = np.asarray(g, dtype=np.float64)
            for t, ref in enumerate(s._term_refs):
                accumulate(ref, g64[:, t])
            vals = [
                np.asarray(_np_value(resolve, ref), dtype=self.rdtype)
                for ref in s._term_refs
            ]
            if any(v.ndim for v in vals):
                thetas = np.stack(
                    [np.broadcast_to(v, (b,)) for v in vals], axis=1
                )
                total = ar.view(f"r{j}.t", (b, dim), self.rdtype)
                np.matmul(thetas, step._coeff_flat, out=total)
            else:
                total = ar.view(f"r{j}.t", (dim,), self.rdtype)
                np.matmul(np.asarray(vals), step._coeff_flat, out=total)
            mask = ar.view(f"r{j}.m", total.shape, self.cdtype)
            np.cos(total, out=mask.real)
            np.sin(total, out=mask.imag)
            np.negative(mask.imag, out=mask.imag)
            if step._const_flat is not None:
                np.multiply(mask, step._const_flat, out=mask)
        else:
            mask = step._const_flat
        np.multiply(pin, mask, out=pout)
        np.multiply(min_, mask, out=mout)

    def _adj_perm(self, j, step):
        inv = step.seed._inv_src
        np.take(self._adj_psi[j + 1], inv, axis=1,
                out=self._adj_psi[j], mode="clip")
        np.take(self._adj_mu[j + 1], inv, axis=1,
                out=self._adj_mu[j], mode="clip")

    def _adj_gate(self, j, step, resolve, accumulate):
        ctx = self._adj_ctx[j]
        res_psi, res_mu = step.adjoint(
            ctx["in_psi_full"], ctx["in_mu_full"], resolve, accumulate
        )
        ctx["out_psi_full"][...] = res_psi
        ctx["out_mu_full"][...] = res_mu

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Audit record: arena footprint and fallback steps."""
        if not self._built:
            return {"batch": self.batch,
                    "precision": self.lowered.precision,
                    "bound": False}
        return {
            "batch": self.batch,
            "precision": self.lowered.precision,
            "bound": True,
            "memory_plan": self.plan.describe(),
            "arena_bytes": self.arena.total_bytes,
            "fallback_steps": list(self._fallback_steps),
        }
