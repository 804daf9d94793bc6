"""Module/Parameter system (a compact analogue of ``torch.nn.Module``).

Modules register parameters and sub-modules automatically through attribute
assignment, expose recursive traversal (``parameters``, ``named_parameters``)
and flat ``state_dict`` round-tripping, and count trainable parameters —
the quantity Table 1 of the paper reports per architecture.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..autodiff import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A :class:`Tensor` flagged as trainable (always ``requires_grad``)."""

    __slots__ = ()

    def __init__(self, data, name: str | None = None):
        super().__init__(np.asarray(data, dtype=np.float64), name=name)
        # Set after construction: ``Tensor`` ANDs the flag with the grad
        # mode, and a parameter built under ``no_grad()`` must still train.
        self.requires_grad = True


class Module:
    """Base class for neural-network building blocks.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__``; registration and recursive traversal are automatic.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module (recursive)."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every registered sub-module."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total count of trainable scalars (Table 1 metric)."""
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Snapshot all state as plain NumPy arrays."""
        return OrderedDict(
            (name, p.data.copy()) for name, p in self.named_parameters()
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore state from a :meth:`state_dict` snapshot."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            p = own[name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != p.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: {value.shape} != {p.shape}"
                )
            p.data = value.copy()

    # ------------------------------------------------------------------
    # Forward protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        """Apply the module to the input tensor(s)."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
