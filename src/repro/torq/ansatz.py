"""The six circuit ansätze of the paper's ablation study (Fig. 4).

Each ansatz is described *as data*: :meth:`Ansatz.gate_sequence` yields
``GateSpec`` records (gate name, qubit tuple, flat parameter indices).  The
same sequence drives both the fast TorQ backend (:func:`apply_ansatz`) and
the naive full-matrix reference backend, guaranteeing that speed
comparisons and cross-validation tests execute the *identical* circuit.

Parameter counts at the paper's 7 qubits × 4 layers:

===========================  ==========
Basic Entangling Layers              84
Strongly Entangling Layers           84
Cross-Mesh                          196
Cross-Mesh-2-Rotations              224
Cross-Mesh-CNOT                      84
No Entanglement                      84
===========================  ==========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .. import obs
from ..autodiff import Tensor, as_tensor
from .compile import ExecutionPlan, _resolver, compile_gates
from .state import (
    QuantumState,
    apply_cnot,
    apply_crz,
    apply_hadamard,
    apply_rot,
    apply_rx,
    apply_ry,
    apply_rz,
    apply_x,
    apply_y,
    apply_z,
)

__all__ = [
    "GateSpec",
    "Ansatz",
    "BasicEntanglingLayers",
    "StronglyEntanglingLayers",
    "CrossMesh",
    "CrossMesh2Rotations",
    "CrossMeshCNOT",
    "NoEntanglement",
    "ANSATZ_NAMES",
    "make_ansatz",
    "apply_ansatz",
]


@dataclass(frozen=True)
class GateSpec:
    """One gate in a circuit: name, acted-on qubits, flat parameter indices."""

    name: str  # "h" | "x" | "y" | "z" | "rx" | "ry" | "rz" | "rot" | "cnot" | "crz"
    qubits: tuple[int, ...]
    params: tuple[int, ...] = ()


class Ansatz:
    """Base class: a layered parameterised circuit on ``n_qubits``."""

    name: str = "abstract"

    def __init__(self, n_qubits: int = 7, n_layers: int = 4):
        if n_qubits < 2:
            raise ValueError("ansätze require at least 2 qubits")
        if n_layers < 1:
            raise ValueError("need at least one layer")
        self.n_qubits = int(n_qubits)
        self.n_layers = int(n_layers)
        self._gates = tuple(self._build())
        self.param_count = (
            max((max(g.params) for g in self._gates if g.params), default=-1) + 1
        )

    # -- subclass hooks -------------------------------------------------
    def _rotation_block(self, counter: "_ParamCounter", layer: int) -> Iterator[GateSpec]:
        raise NotImplementedError

    def _entangling_block(self, counter: "_ParamCounter", layer: int) -> Iterator[GateSpec]:
        raise NotImplementedError

    # -- construction ---------------------------------------------------
    def _build(self) -> Iterator[GateSpec]:
        counter = _ParamCounter()
        for layer in range(self.n_layers):
            yield from self._rotation_block(counter, layer)
            yield from self._entangling_block(counter, layer)

    def gate_sequence(self) -> tuple[GateSpec, ...]:
        """The circuit as an ordered tuple of gate specs."""
        return self._gates

    def execution_plan(self) -> ExecutionPlan:
        """The compiled (fused, index-precomputed) plan for this ansatz.

        Compiled lazily on first use and cached — both on the instance and
        in the process-wide structural plan cache, so every same-shape
        ansatz replays one plan.
        """
        plan = getattr(self, "_plan", None)
        if plan is None:
            plan = compile_gates(self._gates, self.n_qubits)
            self._plan = plan
        return plan

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(n_qubits={self.n_qubits}, "
            f"n_layers={self.n_layers}, params={self.param_count})"
        )


class _ParamCounter:
    """Allocates consecutive flat parameter indices."""

    def __init__(self):
        self.next = 0

    def take(self, count: int) -> tuple[int, ...]:
        """Allocate the next ``count`` consecutive parameter indices."""
        indices = tuple(range(self.next, self.next + count))
        self.next += count
        return indices


class _RotMixin:
    """Rotation block: one arbitrary Rot(α, β, γ) per qubit (3 params)."""

    def _rotation_block(self, counter, layer):
        for q in range(self.n_qubits):
            yield GateSpec("rot", (q,), counter.take(3))


class BasicEntanglingLayers(_RotMixin, Ansatz):
    """Rot per qubit + cyclic nearest-neighbour CNOT chain (Fig. 4a)."""

    name = "basic_entangling"

    def _entangling_block(self, counter, layer):
        for q in range(self.n_qubits):
            yield GateSpec("cnot", (q, (q + 1) % self.n_qubits))


class StronglyEntanglingLayers(_RotMixin, Ansatz):
    """Rot per qubit + cyclic CNOTs with layer-incremented range (Fig. 4b).

    Layer ``l`` connects control ``q`` to target ``(q + r) % n`` with
    ``r = (l mod (n−1)) + 1``, so the first layer matches the basic ansatz
    and the gap grows by one each layer.
    """

    name = "strongly_entangling"

    def _entangling_block(self, counter, layer):
        r = (layer % (self.n_qubits - 1)) + 1
        for q in range(self.n_qubits):
            yield GateSpec("cnot", (q, (q + r) % self.n_qubits))


class _CrossMeshEntangler:
    """All-to-all CRZ mesh: one parametrised CRZ per ordered pair (Eq. 31)."""

    def _entangling_block(self, counter, layer):
        for i in range(self.n_qubits):
            for j in range(self.n_qubits):
                if i != j:
                    yield GateSpec("crz", (i, j), counter.take(1))


class CrossMesh(_CrossMeshEntangler, Ansatz):
    """RX per qubit + full CRZ mesh (Fig. 4c; 196 params at 7q×4L)."""

    name = "cross_mesh"

    def _rotation_block(self, counter, layer):
        for q in range(self.n_qubits):
            yield GateSpec("rx", (q,), counter.take(1))


class CrossMesh2Rotations(_CrossMeshEntangler, Ansatz):
    """RX·RZ per qubit + full CRZ mesh (Fig. 4d; 224 params at 7q×4L)."""

    name = "cross_mesh_2rot"

    def _rotation_block(self, counter, layer):
        for q in range(self.n_qubits):
            yield GateSpec("rx", (q,), counter.take(1))
            yield GateSpec("rz", (q,), counter.take(1))


class CrossMeshCNOT(_RotMixin, Ansatz):
    """Rot per qubit + full unparametrised CNOT mesh (Fig. 4e)."""

    name = "cross_mesh_cnot"

    def _entangling_block(self, counter, layer):
        for i in range(self.n_qubits):
            for j in range(self.n_qubits):
                if i != j:
                    yield GateSpec("cnot", (i, j))


class NoEntanglement(_RotMixin, Ansatz):
    """Rot per qubit only, no two-qubit gates (Fig. 4f)."""

    name = "no_entanglement"

    def _entangling_block(self, counter, layer):
        return iter(())


_REGISTRY = {
    cls.name: cls
    for cls in (
        BasicEntanglingLayers,
        StronglyEntanglingLayers,
        CrossMesh,
        CrossMesh2Rotations,
        CrossMeshCNOT,
        NoEntanglement,
    )
}

ANSATZ_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def make_ansatz(name: str, n_qubits: int = 7, n_layers: int = 4) -> Ansatz:
    """Instantiate an ansatz by its registry name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown ansatz {name!r}; available: {ANSATZ_NAMES}") from None
    return cls(n_qubits=n_qubits, n_layers=n_layers)


#: The interpreted primitive of every gate name; each takes the state,
#: the gate's qubits and then its angles.
_PRIMITIVES = {
    "h": apply_hadamard, "x": apply_x, "y": apply_y, "z": apply_z,
    "rx": apply_rx, "ry": apply_ry, "rz": apply_rz, "rot": apply_rot,
    "cnot": apply_cnot, "crz": apply_crz,
}


def _apply_gate(state: QuantumState, gate: GateSpec, resolve) -> QuantumState:
    """Apply one gate through its :mod:`repro.torq.state` primitive,
    resolving its flat parameter indices in order."""
    angles = [resolve(i) for i in gate.params]
    return _PRIMITIVES[gate.name](state, *gate.qubits, *angles)


def _interpret(state: QuantumState, gates, resolve, scope: str,
               **labels) -> QuantumState:
    """The interpreted (``compiled=False``) per-gate loop; under
    :func:`repro.obs.profile` it runs inside ``scope`` with gate counts,
    the batch size and per-gate timing."""
    if not obs.is_profiling():
        for gate in gates:
            state = _apply_gate(state, gate, resolve)
        return state
    reg = obs.metrics()
    reg.histogram("torq.circuit.batch").observe(state.batch)
    with reg.scope(scope, **labels):
        for gate in gates:
            reg.counter("torq.gates", gate=gate.name).inc()
            with reg.timer("torq.apply", gate=gate.name).time():
                state = _apply_gate(state, gate, resolve)
    return state


def apply_ansatz(
    state: QuantumState,
    ansatz: Ansatz,
    params: Tensor,
    compiled: bool = True,
) -> QuantumState:
    """Run the ansatz on the TorQ backend with a flat parameter tensor.

    ``params`` has shape ``(param_count,)`` for one shared parameter set,
    or ``(batch, param_count)`` to give every batch element its own
    parameters — the layout batched parameter-shift gradients execute.
    By default the circuit runs through its cached
    :class:`~repro.torq.compile.ExecutionPlan`; pass ``compiled=False``
    for the interpreted per-gate path.
    """
    params = as_tensor(params)
    if params.ndim == 2:
        expected = (state.batch, ansatz.param_count)
    else:
        expected = (ansatz.param_count,)
    if params.shape != expected:
        raise ValueError(
            f"expected {ansatz.param_count} parameters, got shape {params.shape}"
        )
    if compiled:
        # The plan gathers every angle it needs from the flat tensor.
        return ansatz.execution_plan().run(state, params)
    resolve, _ = _resolver(params)
    return _interpret(state, ansatz.gate_sequence(), resolve,
                      "torq.ansatz.run", ansatz=type(ansatz).__name__)
