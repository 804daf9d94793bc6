#!/usr/bin/env python
"""TorQ compiler benchmark — emits ``BENCH_torq.json``.

Measures the three executors on the Table 2 workload (7-qubit × 4-layer
``basic_entangling`` quantum layer, forward + backward per "epoch"):

* ``naive``      — per-point dense simulation (forward only; the
                   ``default.qubit``-like baseline, so its row is a lower
                   bound on baseline cost),
* ``uncompiled`` — batched TorQ with interpreted per-gate dispatch,
* ``compiled``   — batched TorQ replaying the fused execution plan,

plus serial vs. batched parameter-shift gradients (one circuit execution
per shifted parameter vector vs. ONE batched execution for the whole shift
table), the adjoint-method gradient (one forward + one reverse sweep for
ALL parameters), the structural fusion counts (gates vs. kernel steps)
for all six paper ansätze, the ``QuantumLayer`` transfer-matrix path
against the gate-by-gate plan across qubit counts (``transfer_sweep``:
no-grad forward and second-order step, which set the layer's
``_TRANSFER_MAX_QUBITS``), and the ``repro.lower`` float32 inference
tier: a 10+ qubit float32 forward against the seed float64 plan, and the
in-place planned executor's forward + ⟨Z⟩ (time, peak traced memory,
arena bytes) against the seed float64 plan's, optionally across a qubit
sweep.  Wall times are the median of ``--repeats`` timed runs after a
warm-up call.

Usage::

    PYTHONPATH=src python scripts/bench_torq.py              # full bench
    PYTHONPATH=src python scripts/bench_torq.py --toy        # CI smoke
    PYTHONPATH=src python scripts/bench_torq.py --check-structure
    PYTHONPATH=src python scripts/bench_torq.py --toy --check-adjoint

A ``--toy`` run without ``--out`` writes ``.bench_tmp/BENCH_torq.toy.json``
(gitignored), so smoke runs never overwrite the committed full-size
report.

The ``paper_residual_step`` row times the second-order path the paper's
training epoch runs: a ``MaxwellQPINN``'s fields plus the three
``create_graph`` derivative passes of ``forward_with_derivatives``, and
the parameter backward through them.

``--check-structure`` exits non-zero unless every fusing ansatz's compiled
plan executes fewer kernel steps than gates, every step of the six
ansätze's plans (bare and behind the RX embedding) is a fused, phase-mask
or permutation step, the paper layer runs its
ansatz on the 2ⁿ basis rows of the transfer matrix only (whatever the
batch), a whole ``MaxwellLoss`` call at 64 points runs it once (one
``W`` for both forwards), one ``transfer_matrix()`` build of the paper
layer and one of a 7-qubit, 4-layer ``cross_mesh`` layer record no more
graph nodes than their budgets (the gate table: per-gate builders
recorded 1,144 and 1,147), the residual step's graph at 64 points holds no more
traced bytes than its budget, and its three ``create_graph`` passes
record no more graph nodes than theirs (all deterministic sizes: they
catch a return to the gate-by-gate plan on every row, to per-gate
matrix builders, to a ``grad()`` that differentiates every parameter on
each pass, to gate-by-gate RX embedding or to a per-qubit |ψ|²
readout); ``--check-adjoint`` exits
non-zero unless an adjoint gradient performs exactly 2 plan sweeps
(forward + reverse) where parameter-shift needs 2P+1 circuit columns;
``--check-lowering`` exits non-zero unless every lowered step of the six
ansätze's embedded circuits is a fused, phase-mask or permutation step
(so every step runs in the arena) and the float32 layer lands inside its
⟨Z⟩ budget.  All are deterministic assertions suitable for CI, unlike
wall-clock thresholds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import autodiff as ad  # noqa: E402
from repro import obs  # noqa: E402
from repro.autodiff import backward  # noqa: E402
from repro.core.config import get_case  # noqa: E402
from repro.core.losses import forward_with_derivatives  # noqa: E402
from repro.core.models import MaxwellQPINN  # noqa: E402
from repro.lower import (  # noqa: E402
    amplitude_budget,
    expectation_budget,
    lower_plan,
)
from repro.torq import (  # noqa: E402
    ANSATZ_NAMES,
    NaiveSimulator,
    QuantumLayer,
    adjoint_grad,
    batched_parameter_shift_grad,
    classify_parameters,
    compile_gates,
    make_ansatz,
    make_batched_ansatz_forward,
    parameter_shift_grad,
    shift_table,
)
from repro.torq import compile as torq_compile  # noqa: E402
from repro.torq import layer as torq_layer  # noqa: E402
from repro.torq.measure import pauli_z_expectations  # noqa: E402
from repro.torq.state import zero_state  # noqa: E402

N_QUBITS = 7
N_LAYERS = 4
ANSATZ = "basic_entangling"
#: Points of the residual graph ``--check-structure`` sizes, and the
#: budgets it must stay under (the measured figures plus about 15%).
#: Through the transfer matrix the graph holds 25.8 MB and the three
#: ``create_graph`` passes record 421 nodes; the gate-by-gate plan on
#: every row held 46.7 MB and recorded 1,057 nodes, and a ``grad()``
#: without pruning recorded 9,867.
GRAPH_BATCH = 64
GRAPH_BUDGET_BYTES = 29_600_000
GRAPH_NODE_BUDGET = 485
#: Graph nodes of one paper-layer ``transfer_matrix()`` build: 176
#: through the gate table (1,144 with per-gate builders), budget +15%.
TRANSFER_NODE_BUDGET = 202
#: The same for a 7-qubit, 4-layer ``cross_mesh`` layer: 708 with its
#: lone RX gates as one-gate fused steps of the gate table (1,147 with
#: per-gate rotations), budget +15%.
CROSS_MESH_NODE_BUDGET = 814
#: The three plan kernels, the only step kinds a plan may hold.
KERNEL_KINDS = {"fused_1q", "phase_mask", "permutation"}
#: ``transfer_sweep``: qubit counts and batch.  The second-order step
#: runs up to ``TRANSFER_STEP_MAX_QUBITS`` only: the gate-by-gate graph
#: holds 1.4 GB at 9 qubits and about doubles per qubit.
TRANSFER_SWEEP_QUBITS = tuple(range(5, 12))
TRANSFER_STEP_MAX_QUBITS = 9
TRANSFER_BATCH = 1024


def _median_time(fn, reps: int) -> float:
    """Median-of-``reps`` wall time of ``fn`` (after one warm-up call)."""
    fn()
    times = []
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _layer_step(compiled: bool, batch: int, n_qubits: int, n_layers: int,
                seed: int = 0):
    """One training step (forward + backward) of the Table 2 quantum layer."""
    layer = QuantumLayer(
        n_qubits=n_qubits, n_layers=n_layers, ansatz=ANSATZ,
        scaling="acos", rng=np.random.default_rng(seed), compiled=compiled,
    )
    acts = ad.Tensor(
        np.random.default_rng(seed + 1).uniform(-0.9, 0.9, (batch, n_qubits))
    )
    params = layer.parameters()

    def run() -> None:
        layer.zero_grad()
        out = layer(acts)
        backward((out * out).mean(), params)

    return run


def bench_table2_step(
    batches, n_qubits: int, n_layers: int, reps: int, naive_cap: int,
    seed: int = 0,
) -> list[dict]:
    rows = []
    for batch in batches:
        uncompiled = _median_time(
            _layer_step(False, batch, n_qubits, n_layers, seed), reps
        )
        compiled = _median_time(
            _layer_step(True, batch, n_qubits, n_layers, seed), reps
        )
        row = {
            "batch": batch,
            "uncompiled_s": uncompiled,
            "compiled_s": compiled,
            "speedup_compiled_vs_uncompiled": uncompiled / compiled,
        }
        if batch <= naive_cap:
            ansatz = make_ansatz(ANSATZ, n_qubits=n_qubits, n_layers=n_layers)
            sim = NaiveSimulator(ansatz, scaling="acos")
            p = np.random.default_rng(seed).uniform(0, 2 * np.pi, ansatz.param_count)
            acts = np.random.default_rng(seed + 1).uniform(-0.9, 0.9, (batch, n_qubits))
            row["naive_forward_s"] = _median_time(
                lambda: sim.forward(acts, p), max(1, reps - 1)
            )
            row["speedup_compiled_vs_naive"] = row["naive_forward_s"] / compiled
        rows.append(row)
        print(f"  batch {batch}: uncompiled {uncompiled*1e3:.1f} ms, "
              f"compiled {compiled*1e3:.1f} ms "
              f"({row['speedup_compiled_vs_uncompiled']:.2f}x)")
    return rows


def _paper_model(batch: int, seed: int = 0):
    """A paper ``MaxwellQPINN`` and a maker of fresh ``(x, y, t)`` leaf
    tensors at ``batch`` points."""
    model = MaxwellQPINN(rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    x, y = rng.uniform(-1.0, 1.0, (2, batch, 1))
    t = rng.uniform(0.0, 1.5, (batch, 1))
    return model, lambda: [ad.Tensor(a, requires_grad=True) for a in (x, y, t)]


def _paper_residual_step(batch: int, seed: int = 0):
    """The paper epoch's second-order path on a paper ``MaxwellQPINN``.

    ``forward_with_derivatives`` (the fields plus three ``create_graph``
    passes) at ``batch`` points, a squared-residual loss, and the
    parameter backward through it.  Returns ``(run, graph)``: ``run``
    performs one full step; ``graph`` builds the loss and returns it, so
    the caller can measure what the graph holds.
    """
    model, coords = _paper_model(batch, seed)
    params = model.parameters()

    def graph():
        bundle = forward_with_derivatives(model, *coords())
        terms = [bundle.ez, bundle.hx, bundle.hy, *vars(bundle.derivs).values()]
        return sum((v * v).mean() for v in terms)

    def run() -> None:
        model.zero_grad()
        backward(graph(), params)

    return run, graph


def residual_graph_bytes(batch: int, seed: int = 0) -> int:
    """Traced bytes the residual step's graph holds before its backward."""
    run, graph = _paper_residual_step(batch, seed)
    run()  # warm: plan compilation and caches stay outside the window
    tracemalloc.start()
    loss = graph()
    held, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del loss
    return int(held)


def _graph_nodes(fn) -> int:
    """Graph nodes ``fn()`` records, counted where every op records its
    node (``repro.autodiff.ops.make_node``), so a cotangent a pass
    computes and then drops counts too."""
    from repro.autodiff import ops

    make_node = ops.make_node
    made = 0

    def counting(data, parents):
        nonlocal made
        node = make_node(data, parents)
        made += node.requires_grad
        return node

    ops.make_node = counting
    try:
        fn()
    finally:
        ops.make_node = make_node
    return made


def residual_pass_nodes(batch: int, seed: int = 0) -> int:
    """Graph nodes the residual step's three ``create_graph`` passes
    record: those of ``forward_with_derivatives`` minus those of the
    fields alone."""
    model, coords = _paper_model(batch, seed)
    return _graph_nodes(
        lambda: forward_with_derivatives(model, *coords())
    ) - _graph_nodes(lambda: model.fields(*coords()))


def transfer_build_nodes(seed: int = 0) -> int:
    """Graph nodes one ``transfer_matrix()`` build of the paper layer
    records."""
    layer = MaxwellQPINN(rng=np.random.default_rng(seed)).quantum
    return _graph_nodes(layer.transfer_matrix)


def cross_mesh_build_nodes(seed: int = 0) -> int:
    """Graph nodes one ``transfer_matrix()`` build of a 7-qubit, 4-layer
    ``cross_mesh`` layer records."""
    layer = QuantumLayer(n_qubits=N_QUBITS, n_layers=N_LAYERS,
                         ansatz="cross_mesh", rng=np.random.default_rng(seed))
    return _graph_nodes(layer.transfer_matrix)


def bench_paper_residual_step(batch: int, reps: int, seed: int = 0) -> dict:
    """Time the paper QPINN's residual step (see :func:`_paper_residual_step`)."""
    run, _ = _paper_residual_step(batch, seed)
    step_s = _median_time(run, reps)
    row = {
        "batch": batch,
        "step_s": step_s,
        "graph_batch": GRAPH_BATCH,
        "graph_bytes": residual_graph_bytes(GRAPH_BATCH, seed),
        "graph_pass_nodes": residual_pass_nodes(GRAPH_BATCH, seed),
        "transfer_build_nodes": transfer_build_nodes(seed),
    }
    print(f"  batch {batch}: {step_s*1e3:.0f} ms; graph at {GRAPH_BATCH} "
          f"points holds {row['graph_bytes']/1e6:.1f} MB, its create_graph "
          f"passes record {row['graph_pass_nodes']} nodes; one W build "
          f"records {row['transfer_build_nodes']}")
    return row


@contextlib.contextmanager
def _transfer_path(enabled: bool):
    """Run ``QuantumLayer``'s backprop path through the transfer matrix
    (``enabled``) or gate by gate, whatever the circuit size."""
    saved = torq_layer._TRANSFER_MAX_QUBITS
    torq_layer._TRANSFER_MAX_QUBITS = 64 if enabled else 0
    try:
        yield
    finally:
        torq_layer._TRANSFER_MAX_QUBITS = saved


def bench_transfer_sweep(qubits, batch: int, step_max: int, reps: int,
                         seed: int = 0) -> list[dict]:
    """The transfer-matrix path against the gate-by-gate plan.

    Per qubit count: the no-grad forward and a second-order step (⟨Z⟩,
    one ``create_graph`` input derivative, and the parameter backward of
    a loss on both) of a 4-layer ``strongly_entangling`` layer at
    ``batch`` rows, the second only up to ``step_max`` qubits.
    """
    rows = []
    for n in qubits:
        layer = QuantumLayer(n_qubits=n, n_layers=N_LAYERS,
                             rng=np.random.default_rng(seed))
        acts = np.random.default_rng(seed + 1).uniform(-0.9, 0.9, (batch, n))
        params = layer.parameters()

        def forward() -> None:
            with ad.no_grad():
                layer(ad.Tensor(acts))

        def step() -> None:
            a = ad.Tensor(acts, requires_grad=True)
            z = layer(a)
            (dz,) = ad.grad(z.sum(), [a], create_graph=True)
            layer.zero_grad()
            backward((dz * dz).mean() + (z * z).mean(), params)

        row = {"n_qubits": n, "batch": batch}
        for path in ("transfer", "gate"):
            with _transfer_path(path == "transfer"):
                row[f"{path}_forward_s"] = _median_time(forward, reps)
                if n <= step_max:
                    row[f"{path}_step_s"] = _median_time(step, reps)
        row["forward_speedup"] = row["gate_forward_s"] / row["transfer_forward_s"]
        line = (f"  {n} qubits: forward {row['transfer_forward_s']*1e3:.0f} "
                f"vs {row['gate_forward_s']*1e3:.0f} ms "
                f"({row['forward_speedup']:.2f}x)")
        if n <= step_max:
            row["step_speedup"] = row["gate_step_s"] / row["transfer_step_s"]
            line += (f", second-order step {row['transfer_step_s']*1e3:.0f} "
                     f"vs {row['gate_step_s']*1e3:.0f} ms "
                     f"({row['step_speedup']:.2f}x)")
        rows.append(row)
        print(line)
    return rows


def _plan_rows(fn) -> list:
    """The row count of every ``ExecutionPlan.run`` during ``fn()``."""
    seen = []
    run = torq_compile.ExecutionPlan.run

    def recording(plan, state, resolve):
        seen.append(state.batch)
        return run(plan, state, resolve)

    torq_compile.ExecutionPlan.run = recording
    try:
        fn()
    finally:
        torq_compile.ExecutionPlan.run = run
    return seen


def check_transfer_path() -> tuple[bool, list]:
    """Whether the paper layer runs its ansatz on the 2ⁿ basis rows only.

    Records the row count of every ``ExecutionPlan.run`` in one forward
    of ``MaxwellQPINN``'s layer at ``GRAPH_BATCH`` points: the transfer
    path runs the plan once, on 2ⁿ rows; a silent fallback to the
    gate-by-gate plan runs it on the batch.
    """
    layer = MaxwellQPINN(rng=np.random.default_rng(0)).quantum
    acts = ad.Tensor(np.random.default_rng(1).uniform(
        -0.9, 0.9, (GRAPH_BATCH, layer.n_qubits)))
    seen = _plan_rows(lambda: layer(acts))
    return seen == [2 ** layer.n_qubits], seen


def check_loss_transfer() -> tuple[bool, list]:
    """Whether one ``MaxwellLoss`` call on ``GRAPH_BATCH`` (4³) points
    runs the paper layer's plan once, on 2ⁿ rows: its derivative-bearing
    and its mirror/IC forwards share one ``W``."""
    case = get_case("vacuum")
    model = MaxwellQPINN(rng=np.random.default_rng(0), t_max=case.t_max)
    loss_fn = case.make_loss(use_energy=True)
    grid = case.make_grid(round(GRAPH_BATCH ** (1 / 3)))
    assert grid.n_points == GRAPH_BATCH
    seen = _plan_rows(lambda: loss_fn(model, grid))
    return seen == [2 ** model.quantum.n_qubits], seen


def bench_parameter_shift(
    n_qubits: int, n_layers: int, reps: int, seed: int = 2
) -> dict:
    # cross_mesh gives n(n-1) CRZ params per layer — ≥50 parameters even at
    # toy sizes, and exercises the four-term shift rule.
    ansatz = make_ansatz("cross_mesh", n_qubits=n_qubits, n_layers=n_layers)
    params = np.random.default_rng(seed).uniform(0, 2 * np.pi, ansatz.param_count)
    forward = make_batched_ansatz_forward(ansatz)
    serial = _median_time(lambda: parameter_shift_grad(forward, params, ansatz), reps)
    batched = _median_time(
        lambda: batched_parameter_shift_grad(forward, params, ansatz), reps
    )
    diff = float(np.abs(
        parameter_shift_grad(forward, params, ansatz)
        - batched_parameter_shift_grad(forward, params, ansatz)
    ).max())
    result = {
        "ansatz": "cross_mesh",
        "n_qubits": n_qubits,
        "n_layers": n_layers,
        "n_params": ansatz.param_count,
        "serial_s": serial,
        "batched_s": batched,
        "speedup_batched_vs_serial": serial / batched,
        "max_abs_grad_diff": diff,
    }
    print(f"  shift @ {ansatz.param_count} params: serial {serial*1e3:.0f} ms, "
          f"batched {batched*1e3:.0f} ms "
          f"({result['speedup_batched_vs_serial']:.1f}x, Δ={diff:.1e})")
    return result


def bench_adjoint(shift_result: dict, reps: int, seed: int = 2) -> dict:
    """Adjoint gradient on the same workload :func:`bench_parameter_shift`
    measured — one forward + one reverse sweep for all parameters, vs the
    shift table's 2P+1 circuit columns."""
    ansatz = make_ansatz(
        "cross_mesh",
        n_qubits=shift_result["n_qubits"],
        n_layers=shift_result["n_layers"],
    )
    params = np.random.default_rng(seed).uniform(0, 2 * np.pi, ansatz.param_count)
    adjoint_s = _median_time(lambda: adjoint_grad(ansatz, params), reps)
    forward = make_batched_ansatz_forward(ansatz)
    diff = float(np.abs(
        adjoint_grad(ansatz, params)
        - batched_parameter_shift_grad(forward, params, ansatz)
    ).max())
    rules = classify_parameters(ansatz.gate_sequence(), ansatz.param_count)
    result = {
        "ansatz": "cross_mesh",
        "n_qubits": shift_result["n_qubits"],
        "n_layers": shift_result["n_layers"],
        "n_params": ansatz.param_count,
        "adjoint_s": adjoint_s,
        "speedup_adjoint_vs_serial": shift_result["serial_s"] / adjoint_s,
        "speedup_adjoint_vs_batched": shift_result["batched_s"] / adjoint_s,
        "max_abs_grad_diff_vs_batched": diff,
        "plan_sweeps": 2,
        "shift_columns": len(shift_table(rules)) + 1,  # + unshifted forward
    }
    print(f"  adjoint @ {ansatz.param_count} params: {adjoint_s*1e3:.1f} ms "
          f"({result['speedup_adjoint_vs_batched']:.1f}x vs batched shift, "
          f"{result['speedup_adjoint_vs_serial']:.0f}x vs serial, "
          f"Δ={diff:.1e}; 2 sweeps vs "
          f"{result['shift_columns']} shift columns)")
    return result


def bench_big_statevector(n_qubits: int, n_layers: int, batch: int,
                          reps: int, seed: int = 0) -> dict:
    """A 10+ qubit statevector row under the float32 tier.

    Times the lowered float32 forward at ``n_qubits`` against the seed
    float64 plan's forward, and checks the float32 amplitudes against
    the seed's within the documented amplitude budget.
    """
    ansatz = make_ansatz(ANSATZ, n_qubits=n_qubits, n_layers=n_layers)
    gates = ansatz.gate_sequence()
    rng = np.random.default_rng(seed)
    values = [float(v) for v in rng.uniform(0, 2 * np.pi, ansatz.param_count)]
    seed_plan = compile_gates(gates, n_qubits)
    lo32 = lower_plan(gates, n_qubits)

    def resolve(i):
        return values[i]

    def run64():
        return seed_plan.run(zero_state(batch, n_qubits), resolve)

    with ad.no_grad():
        t64 = _median_time(run64, reps)
        amp64 = run64().numpy()
    forward32 = lo32.planned_execution(batch).run_forward
    t32 = _median_time(lambda: forward32(resolve), reps)
    amp32 = lo32.amplitudes(batch, resolve)
    err = float(np.max(np.abs(amp32.astype(np.complex128) - amp64)))
    budget = amplitude_budget("float32", n_qubits, len(gates))
    row = {
        "n_qubits": n_qubits,
        "n_layers": n_layers,
        "n_gates": len(gates),
        "batch": batch,
        "float64_s": t64,
        "float32_s": t32,
        "speedup_f32_vs_f64": t64 / t32,
        "max_abs_amp_err": err,
        "amp_budget": budget,
        "within_budget": err <= budget,
    }
    assert row["within_budget"], \
        f"{n_qubits}-qubit f32 amp error {err} over budget {budget}"
    print(f"  {n_qubits} qubits x batch {batch}: f64 {t64*1e3:.1f} ms, "
          f"f32 {t32*1e3:.1f} ms ({row['speedup_f32_vs_f64']:.2f}x, "
          f"amp err {err:.1e} <= {budget:.1e})")
    return row


def _seed_forward(gates, n_qubits, values, batch):
    """Forward + ⟨Z⟩ on the seed float64 plan."""
    plan = compile_gates(gates, n_qubits)

    def run():
        final = plan.run(zero_state(batch, n_qubits), lambda i: values[i])
        return pauli_z_expectations(final)

    return run


def _peak_traced_bytes(run) -> int:
    """Peak python-allocated bytes of one warm invocation of ``run``."""
    run()  # warm: bind arenas / caches outside the measured window
    tracemalloc.start()
    run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return int(peak)


def bench_planned(n_qubits: int, n_layers: int, batch: int, reps: int,
                  seed: int = 0) -> dict:
    """The in-place planned executor against the seed float64 plan.

    Forward + ⟨Z⟩ at ``n_qubits``: time, peak traced memory of one warm
    call, and the arena footprint of the planned float32 tier.
    """
    ansatz = make_ansatz(ANSATZ, n_qubits=n_qubits, n_layers=n_layers)
    gates = ansatz.gate_sequence()
    rng = np.random.default_rng(seed)
    values = [float(v) for v in rng.uniform(0, 2 * np.pi, ansatz.param_count)]
    with ad.no_grad():
        seed_run = _seed_forward(gates, n_qubits, values, batch)
        t_seed = _median_time(seed_run, reps)
        peak_seed = _peak_traced_bytes(seed_run)
    plan = lower_plan(gates, n_qubits)

    def run():
        return plan.z_expectations(batch, lambda i: values[i])

    t = _median_time(run, reps)
    peak = _peak_traced_bytes(run)
    report = plan.memory_report()[batch]
    row = {
        "n_qubits": n_qubits,
        "n_layers": n_layers,
        "n_gates": len(gates),
        "batch": batch,
        "seed_f64_forward_s": t_seed,
        "seed_f64_peak_traced_bytes": peak_seed,
        "planned_f32": {
            "forward_s": t,
            "speedup_vs_seed_f64": t_seed / t,
            "peak_traced_bytes": peak,
            "peak_memory_ratio_vs_seed_f64": peak_seed / max(1, peak),
            "arena_bytes": report["arena_bytes"],
            "memory_plan": report["memory_plan"],
        },
    }
    print(f"  {n_qubits} qubits x batch {batch}: seed f64 "
          f"{t_seed*1e3:.1f} ms, {peak_seed/2**20:.1f} MiB; planned f32 "
          f"{t*1e3:.1f} ms ({t_seed/t:.2f}x), {peak/2**20:.2f} MiB + "
          f"{report['arena_bytes']/2**20:.2f} MiB arena")
    return row


def _parse_qubit_sweep(spec: str) -> list[int]:
    """``"9..14"`` / ``"9-14"`` / ``"9,11,13"`` -> sorted qubit counts."""
    spec = spec.strip()
    for sep in ("..", "-"):
        if sep in spec and "," not in spec:
            lo, hi = spec.split(sep, 1)
            lo, hi = int(lo), int(hi)
            if not 1 <= lo <= hi:
                raise ValueError(f"bad qubit sweep {spec!r}")
            return list(range(lo, hi + 1))
    return sorted({int(tok) for tok in spec.split(",") if tok.strip()})


def bench_qubit_sweep(qubits: list[int], n_layers: int, batch: int,
                      reps: int, seed: int = 0) -> list[dict]:
    """:func:`bench_planned` rows across statevector sizes."""
    rows = []
    for n in qubits:
        rows.append(bench_planned(n, n_layers, batch, reps, seed=seed))
    return rows


def check_lowering() -> int:
    """Deterministic CI assertion for the lowered float32 tier.

    * every lowered step of the six ansätze's embedded circuits is a
      fused, phase-mask or permutation step, so every step runs in the
      arena,
    * the float32 layer's ⟨Z⟩ deviation from the float64 layer is within
      its documented budget.
    """
    n_qubits, n_layers, batch = 4, 2, 16
    other = {}
    for name in ANSATZ_NAMES:
        layer = QuantumLayer(n_qubits=n_qubits, n_layers=n_layers,
                             ansatz=name, rng=np.random.default_rng(0))
        kinds = {s.kind for s in lower_plan(
            layer.embedded_gate_sequence(), n_qubits).steps}
        if kinds - KERNEL_KINDS:
            other[name] = sorted(kinds - KERNEL_KINDS)
    base, l32 = (
        QuantumLayer(n_qubits=n_qubits, n_layers=n_layers, ansatz=ANSATZ,
                     rng=np.random.default_rng(0), precision=precision)
        for precision in ("float64", "float32")
    )
    acts = ad.Tensor(
        np.random.default_rng(1).uniform(-0.9, 0.9, (batch, n_qubits)))
    with ad.no_grad():
        z0 = base(acts).data
        z32 = l32(acts).data
    budget = expectation_budget(
        "float32", n_qubits, len(base.embedded_gate_sequence()))
    err32 = float(np.max(np.abs(z32 - z0)))
    ok = not other and err32 <= budget
    status = "passed" if ok else "FAILED"
    print(f"lowering check {status}: steps outside the arena "
          f"{other or 'none'} over {len(ANSATZ_NAMES)} ansätze, "
          f"f32 z err {err32:.1e} <= {budget:.1e}")
    return 0 if ok else 1


def check_adjoint_sweeps(report_adjoint: dict) -> int:
    """Deterministic CI assertion: one adjoint gradient = exactly 2 plan
    sweeps (forward + reverse), however many parameters the circuit has."""
    ansatz = make_ansatz("cross_mesh", n_qubits=4, n_layers=2)
    params = np.random.default_rng(0).uniform(0, 2 * np.pi, ansatz.param_count)
    forward = make_batched_ansatz_forward(ansatz)
    # Instrumented counters land in the process-global registry; diff
    # before/after so earlier profiled runs don't pollute the assertion.
    reg = obs.metrics()
    fwd_counter = reg.counter("torq.adjoint.sweep", direction="forward")
    rev_counter = reg.counter("torq.adjoint.sweep", direction="reverse")
    f0, r0 = fwd_counter.value, rev_counter.value
    with obs.profile():
        g_adj = adjoint_grad(ansatz, params)
    fwd = fwd_counter.value - f0
    rev = rev_counter.value - r0
    rules = classify_parameters(ansatz.gate_sequence(), ansatz.param_count)
    columns = len(shift_table(rules)) + 1
    diff = float(np.abs(
        g_adj - batched_parameter_shift_grad(forward, params, ansatz)
    ).max())
    ok = fwd == 1 and rev == 1 and diff < 1e-8
    status = "passed" if ok else "FAILED"
    print(f"adjoint check {status}: {int(fwd)} forward + {int(rev)} reverse "
          f"sweep(s) for {ansatz.param_count} params "
          f"(parameter-shift needs {columns} columns); Δ={diff:.1e}")
    return 0 if ok else 1


def check_kernel_kinds(n_qubits: int, n_layers: int) -> dict:
    """Step kinds outside :data:`KERNEL_KINDS` per plan of the six
    ansätze, bare and behind the RX embedding (empty when none)."""
    other = {}
    for name in ANSATZ_NAMES:
        layer = QuantumLayer(n_qubits=n_qubits, n_layers=n_layers,
                             ansatz=name, rng=np.random.default_rng(0))
        for form, gates in (("bare", layer.ansatz.gate_sequence()),
                            ("embedded", layer.embedded_gate_sequence())):
            kinds = {s.kind for s in compile_gates(gates, n_qubits).steps}
            if kinds - KERNEL_KINDS:
                other[f"{name} ({form})"] = sorted(kinds - KERNEL_KINDS)
    return other


def plan_structure(n_qubits: int, n_layers: int) -> list[dict]:
    rows = []
    for name in ANSATZ_NAMES:
        plan = make_ansatz(name, n_qubits=n_qubits, n_layers=n_layers).execution_plan()
        rows.append({
            "ansatz": name,
            "n_gates": plan.n_gates,
            "n_steps": plan.num_steps,
            "fused_gates": plan.fused_gates,
        })
        print(f"  {name}: {plan.n_gates} gates -> {plan.num_steps} kernel steps")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes for CI smoke runs")
    parser.add_argument("--check-structure", action="store_true",
                        help="assert compiled plans fuse (steps < gates)")
    parser.add_argument("--check-adjoint", action="store_true",
                        help="assert an adjoint gradient = exactly 2 sweeps")
    parser.add_argument("--check-lowering", action="store_true",
                        help="assert every lowered step runs in the arena "
                             "and f32 is within budget")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed runs per measurement (median reported; "
                             "default 2 with --toy, 5 otherwise)")
    parser.add_argument("--qubits-sweep", type=str, default=None,
                        metavar="LO..HI",
                        help="planned-executor rows across statevector "
                             "sizes (e.g. 9..14); defaults to 9..14 on full "
                             "runs, off with --toy")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for parameters and activations")
    parser.add_argument("--out", type=Path, default=None,
                        help="report path (default BENCH_torq.json, or "
                             ".bench_tmp/BENCH_torq.toy.json with --toy)")
    args = parser.parse_args(argv)
    out = args.out or REPO_ROOT / (
        ".bench_tmp/BENCH_torq.toy.json" if args.toy
        else "BENCH_torq.json")

    if args.toy:
        n_qubits, n_layers, batches, reps, naive_cap = 4, 2, (16,), 2, 16
    else:
        # Table 2 grids (8^3 and 12^3 collocation points) at paper size.
        n_qubits, n_layers, batches, reps, naive_cap = N_QUBITS, N_LAYERS, (512, 1728), 5, 512
    if args.repeats is not None:
        if args.repeats < 1:
            parser.error("--repeats must be >= 1")
        reps = args.repeats

    print(f"TorQ bench: {n_qubits} qubits x {n_layers} layers ({ANSATZ}), "
          f"median of {reps} run(s), seed {args.seed}")
    print("plan structure:")
    structure = plan_structure(n_qubits, n_layers)
    print("training step (forward+backward):")
    step_rows = bench_table2_step(
        batches, n_qubits, n_layers, reps, naive_cap, seed=args.seed
    )
    print("paper residual step (fields + create_graph derivatives + "
          "backward, MaxwellQPINN):")
    residual_row = bench_paper_residual_step(
        16 if args.toy else 512, reps, seed=args.seed
    )
    sweep_qubits = range(3, 6) if args.toy else TRANSFER_SWEEP_QUBITS
    transfer_batch = 64 if args.toy else TRANSFER_BATCH
    print(f"transfer matrix vs gate by gate (batch {transfer_batch}):")
    transfer_rows = bench_transfer_sweep(
        sweep_qubits, transfer_batch, TRANSFER_STEP_MAX_QUBITS,
        max(1, reps - 2), seed=args.seed,
    )
    print("parameter-shift gradient:")
    shift = bench_parameter_shift(
        n_qubits, max(1, n_layers // 2) if not args.toy else n_layers, reps,
        seed=args.seed + 2,
    )
    print("adjoint gradient:")
    adjoint = bench_adjoint(shift, reps, seed=args.seed + 2)
    print("big statevector (float32 tier):")
    big_n, big_batch = (10, 4) if args.toy else (11, 8)
    big_row = bench_big_statevector(
        big_n, 2, big_batch, max(1, reps - 1), seed=args.seed
    )
    print("planned in-place forward + <Z> vs seed float64 plan:")
    plan_n, plan_batch = (6, 8) if args.toy else (14, 32)
    planned_row = bench_planned(
        plan_n, n_layers, plan_batch, max(1, reps - 1), seed=args.seed
    )
    sweep_spec = args.qubits_sweep
    if sweep_spec is None and not args.toy:
        sweep_spec = "9..14"
    sweep_rows = []
    if sweep_spec:
        print(f"qubit sweep ({sweep_spec}):")
        sweep_rows = bench_qubit_sweep(
            _parse_qubit_sweep(sweep_spec), n_layers,
            plan_batch if not args.toy else 8,
            max(1, reps - 1), seed=args.seed,
        )

    report = {
        "workload": {
            "description": "Table 2 QuantumLayer epoch (forward+backward)",
            "ansatz": ANSATZ,
            "n_qubits": n_qubits,
            "n_layers": n_layers,
            "toy": bool(args.toy),
            "repeats": reps,
            "seed": args.seed,
        },
        # CPU/BLAS fingerprint; the "big_statevector" and
        # "planned_execution" sections compare float32 with the seed.
        "environment": obs.environment_info(),
        "table2_step": step_rows,
        "paper_residual_step": residual_row,
        "transfer_sweep": transfer_rows,
        "parameter_shift": shift,
        "adjoint": adjoint,
        "plan_structure": structure,
        "big_statevector": big_row,
        "planned_execution": planned_row,
        "qubit_sweep": sweep_rows,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    if args.check_structure:
        failures = [r for r in structure if r["n_steps"] >= r["n_gates"]]
        if failures:
            print(f"STRUCTURE CHECK FAILED: {failures}")
            return 1
        print("structure check passed: compiled plans execute fewer kernels")
        other = check_kernel_kinds(n_qubits, n_layers)
        if other:
            print(f"KERNEL CHECK FAILED: plan steps outside "
                  f"{sorted(KERNEL_KINDS)}: {other}")
            return 1
        print(f"kernel check passed: every step of the {len(ANSATZ_NAMES)} "
              f"ansätze's plans, bare and embedded, is one of "
              f"{sorted(KERNEL_KINDS)}")
        ok, seen = check_transfer_path()
        if not ok:
            print(f"TRANSFER CHECK FAILED: the paper layer's plan ran on "
                  f"{seen} rows at {GRAPH_BATCH} points, not once on the "
                  f"{2 ** N_QUBITS} basis rows")
            return 1
        print(f"transfer check passed: the paper layer's plan ran once, "
              f"on the {seen[0]} basis rows, for {GRAPH_BATCH} points")
        ok, seen = check_loss_transfer()
        if not ok:
            print(f"TRANSFER CHECK FAILED: one MaxwellLoss call at "
                  f"{GRAPH_BATCH} points ran the paper layer's plan on "
                  f"{seen} rows, not once on the {2 ** N_QUBITS} basis rows")
            return 1
        print(f"transfer check passed: one MaxwellLoss call at "
              f"{GRAPH_BATCH} points ran the plan once, on {seen[0]} rows")
        nodes = residual_row["transfer_build_nodes"]
        if nodes > TRANSFER_NODE_BUDGET:
            print(f"TRANSFER CHECK FAILED: one transfer_matrix() build "
                  f"records {nodes} nodes > {TRANSFER_NODE_BUDGET}")
            return 1
        print(f"transfer check passed: one transfer_matrix() build "
              f"records {nodes} nodes <= {TRANSFER_NODE_BUDGET}")
        nodes = cross_mesh_build_nodes()
        if nodes > CROSS_MESH_NODE_BUDGET:
            print(f"TRANSFER CHECK FAILED: one cross_mesh transfer_matrix() "
                  f"build records {nodes} nodes > {CROSS_MESH_NODE_BUDGET}")
            return 1
        print(f"transfer check passed: one cross_mesh transfer_matrix() "
              f"build records {nodes} nodes <= {CROSS_MESH_NODE_BUDGET}")
        held = residual_row["graph_bytes"]
        if held > GRAPH_BUDGET_BYTES:
            print(f"GRAPH CHECK FAILED: residual graph at {GRAPH_BATCH} "
                  f"points holds {held/1e6:.1f} MB > "
                  f"{GRAPH_BUDGET_BYTES/1e6:.1f} MB budget")
            return 1
        print(f"graph check passed: residual graph at {GRAPH_BATCH} points "
              f"holds {held/1e6:.1f} MB <= {GRAPH_BUDGET_BYTES/1e6:.1f} MB")
        nodes = residual_row["graph_pass_nodes"]
        if nodes > GRAPH_NODE_BUDGET:
            print(f"GRAPH CHECK FAILED: the create_graph passes at "
                  f"{GRAPH_BATCH} points record {nodes} nodes > "
                  f"{GRAPH_NODE_BUDGET}")
            return 1
        print(f"graph check passed: the create_graph passes at "
              f"{GRAPH_BATCH} points record {nodes} nodes <= "
              f"{GRAPH_NODE_BUDGET}")
    if args.check_adjoint:
        if check_adjoint_sweeps(adjoint) != 0:
            return 1
    if args.check_lowering:
        if check_lowering() != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
