"""User-facing circuit builder for TorQ.

The ansatz classes cover the paper's fixed architectures; this module
exposes general circuit construction for library users:

    from repro.torq import Circuit

    qc = Circuit(3)
    qc.h(0).cnot(0, 1).rx(2, "theta").crz(1, 2, "phi")
    state = qc.run(params={"theta": 0.3, "phi": 1.2}, batch=8)
    z = qc.z_expectations(params={"theta": 0.3, "phi": 1.2})

Named parameters may be shared between gates; values can be floats or
differentiable tensors, so a :class:`Circuit` can sit inside a training
loop like any other module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..autodiff import Tensor
from .ansatz import GateSpec, _interpret
from .compile import ExecutionPlan, compile_gates
from .measure import pauli_z_expectations
from .state import QuantumState, zero_state

__all__ = ["Circuit"]


@dataclass(frozen=True)
class _Op:
    name: str
    qubits: tuple[int, ...]
    params: tuple[object, ...]  # floats, tensors, or parameter-name strings


class Circuit:
    """A gate sequence on ``n_qubits`` with named/literal parameters."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = int(n_qubits)
        self._ops: list[_Op] = []
        self._param_names: tuple[str, ...] | None = None
        self._gate_seq: tuple[GateSpec, ...] | None = None
        self._literals: tuple = ()
        self._plan: ExecutionPlan | None = None

    # -- construction (fluent) ------------------------------------------
    def _append(self, name: str, qubits: tuple[int, ...], params: tuple = ()) -> "Circuit":
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range")
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise ValueError("control and target must differ")
        self._ops.append(_Op(name, qubits, params))
        # Appending invalidates every structure-derived cache.
        self._param_names = None
        self._gate_seq = None
        self._literals = ()
        self._plan = None
        return self

    def h(self, q: int) -> "Circuit":
        """Append a Hadamard gate."""
        return self._append("h", (q,))

    def x(self, q: int) -> "Circuit":
        """Append a Pauli-X gate."""
        return self._append("x", (q,))

    def y(self, q: int) -> "Circuit":
        """Append a Pauli-Y gate."""
        return self._append("y", (q,))

    def z(self, q: int) -> "Circuit":
        """Append a Pauli-Z gate."""
        return self._append("z", (q,))

    def rx(self, q: int, theta) -> "Circuit":
        """Append an RX rotation."""
        return self._append("rx", (q,), (theta,))

    def ry(self, q: int, theta) -> "Circuit":
        """Append an RY rotation."""
        return self._append("ry", (q,), (theta,))

    def rz(self, q: int, theta) -> "Circuit":
        """Append an RZ rotation."""
        return self._append("rz", (q,), (theta,))

    def rot(self, q: int, alpha, beta, gamma) -> "Circuit":
        """Append an arbitrary Rot(α, β, γ) rotation."""
        return self._append("rot", (q,), (alpha, beta, gamma))

    def cnot(self, control: int, target: int) -> "Circuit":
        """Append a CNOT gate."""
        return self._append("cnot", (control, target))

    def crz(self, control: int, target: int, theta) -> "Circuit":
        """Append a controlled-RZ gate."""
        return self._append("crz", (control, target), (theta,))

    # -- introspection ---------------------------------------------------
    @property
    def n_gates(self) -> int:
        """Number of gates appended so far."""
        return len(self._ops)

    def parameter_names(self) -> tuple[str, ...]:
        """Free (string-named) parameters in first-appearance order.

        Cached after the first scan; :meth:`_append` invalidates it, so
        repeated calls inside a training loop do not rescan the ops.
        """
        if self._param_names is None:
            seen: list[str] = []
            for op in self._ops:
                for p in op.params:
                    if isinstance(p, str) and p not in seen:
                        seen.append(p)
            self._param_names = tuple(seen)
        return self._param_names

    def gate_sequence(self) -> tuple[GateSpec, ...]:
        """The circuit as :class:`GateSpec` records with flat parameter
        indices — the same interface :meth:`Ansatz.gate_sequence` exposes,
        so the compiler, the parameter-shift rules, and the dense
        reference oracle all consume one circuit description.

        Named parameters map to indices ``0..n_named-1`` in
        :meth:`parameter_names` order (shared names share an index);
        literal values (floats, arrays, tensors) get fresh trailing
        indices in appearance order, with their values recoverable via
        :meth:`flat_parameter_values`.
        """
        if self._gate_seq is None:
            names = self.parameter_names()
            index = {name: i for i, name in enumerate(names)}
            literals: list = []
            specs: list[GateSpec] = []
            for op in self._ops:
                refs = []
                for p in op.params:
                    if isinstance(p, str):
                        refs.append(index[p])
                    else:
                        refs.append(len(names) + len(literals))
                        literals.append(p)
                specs.append(GateSpec(op.name, op.qubits, tuple(refs)))
            self._gate_seq = tuple(specs)
            self._literals = tuple(literals)
        return self._gate_seq

    def flat_parameter_values(self, params: Mapping[str, object] | None = None) -> list:
        """Parameter values aligned with :meth:`gate_sequence` indices:
        named values (resolved through ``params``) first, literals after."""
        self.gate_sequence()
        values = [self._resolve(name, params) for name in self.parameter_names()]
        values.extend(self._literals)
        return values

    def execution_plan(self) -> ExecutionPlan:
        """The compiled plan for the current gate sequence (cached until
        the next append, and shared structurally across circuits)."""
        if self._plan is None:
            self._plan = compile_gates(self.gate_sequence(), self.n_qubits)
        return self._plan

    # -- execution --------------------------------------------------------
    def _resolve(self, value, params: Mapping[str, object] | None):
        if isinstance(value, str):
            if params is None or value not in params:
                raise KeyError(f"missing value for parameter {value!r}")
            return params[value]
        return value

    def run(
        self,
        params: Mapping[str, object] | None = None,
        batch: int = 1,
        initial: QuantumState | None = None,
        compiled: bool = True,
    ) -> QuantumState:
        """Execute the circuit; returns the final batched state.

        By default execution replays the cached compiled plan
        (:meth:`execution_plan`); pass ``compiled=False`` for the
        interpreted per-gate path.
        """
        state = initial if initial is not None else zero_state(batch, self.n_qubits)
        if state.n_qubits != self.n_qubits:
            raise ValueError("initial state has the wrong qubit count")
        resolve = self.flat_parameter_values(params).__getitem__
        if compiled:
            return self.execution_plan().run(state, resolve)
        return _interpret(state, self.gate_sequence(), resolve,
                          "torq.circuit.run", n_qubits=self.n_qubits)

    def z_expectations(
        self,
        params: Mapping[str, object] | None = None,
        batch: int = 1,
        compiled: bool = True,
    ) -> Tensor:
        """Per-qubit ⟨Z⟩ of the final state, shape ``(batch, n_qubits)``."""
        return pauli_z_expectations(
            self.run(params=params, batch=batch, compiled=compiled)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Circuit(n_qubits={self.n_qubits}, gates={self.n_gates})"
