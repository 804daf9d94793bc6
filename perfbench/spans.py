"""Span recorder that wraps a layer's public callables from outside.

The benchmark never traces through ``repro.obs``: attaching a recorder
switches the trainer onto another code path and profiling rebinds
autodiff ops, so the numbers would describe a different program.
Instead :class:`Tracer` replaces selected attributes (class methods or
module globals) with thin wrappers that time each call, and restores
them on :meth:`Tracer.close`.

Each span records its name, start, end, thread, a row count, and its
*self* time: its duration minus the time covered by spans it caused on
the same thread.  Self times of all spans plus an explicit
``unattributed`` remainder therefore sum to the traced wall time.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    thread: int
    rows: int


class Tracer:
    """In-memory spans around wrapped callables; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, rows=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``rows(*args, **kwargs)`` optionally extracts a work count (for
        example the batch size) recorded with the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.spans.append(Span(
                    name, start, end, duration - children[0],
                    threading.get_ident(),
                    int(rows(*args, **kwargs)) if rows is not None else 0,
                ))

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def between(self, start: float, end: float) -> list[Span]:
        """Spans that started inside ``(start, end]``."""
        return [s for s in self.spans if start < s.start <= end]

    @staticmethod
    def self_times(spans) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = {}
        for s in spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_s
        return out

    @staticmethod
    def counts(spans) -> dict[str, int]:
        """Number of calls per span name."""
        out: dict[str, int] = {}
        for s in spans:
            out[s.name] = out.get(s.name, 0) + 1
        return out

    @staticmethod
    def rows(spans) -> dict[str, int]:
        """Summed row counts per span name."""
        out: dict[str, int] = {}
        for s in spans:
            out[s.name] = out.get(s.name, 0) + s.rows
        return out
