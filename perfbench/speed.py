"""Machine-speed probe that steadies the benchmark's time metrics.

The 2-vCPU VM the benchmark was sized on runs the same CPU-bound code
anywhere between 0.55x and 1x of its best speed, in episodes that last
from a second to tens of seconds: neighbours on the host, not the
program, set the pace.  Raw wall times of the same code then spread by
30-50% between runs.

:class:`SpeedProbe` runs a fixed loop (pure-Python arithmetic plus a small
matmul, the two kinds of work the workloads are made of) for a few tens of
milliseconds between the measured steps, while the program is idle.  A
step's wall time times ``rate / REF_RATE``, with ``rate`` the mean of the
probes on either side of it, is the step's time at the reference speed.
The factor does not depend on the program, so a faster program still
reads faster; it only removes the machine's speed state, which the probe
tracks with a correlation of 0.8-0.9.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REF_RATE", "SpeedProbe", "scale"]

# Probe loops per second that count as the reference speed: the rate of
# the sizing VM (Xeon, KVM) when no neighbour competes, so scaled times
# read as wall times on an uncontended machine.
REF_RATE = 9000.0


def _loop(a: np.ndarray, b: np.ndarray) -> None:
    s = 0
    for i in range(500):
        s += i
    a @ b


class SpeedProbe:
    """Measures the probe loop's rate; ``rates`` keeps every reading."""

    def __init__(self, seconds: float):
        rng = np.random.default_rng(12345)
        self.a = rng.random((256, 128))
        self.b = rng.random((128, 64))
        self.seconds = float(seconds)
        self.rates: list[float] = []

    def rate(self) -> float:
        """Probe loops per second over one ``seconds``-long burst."""
        n = 0
        t0 = time.perf_counter()
        while True:
            _loop(self.a, self.b)
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= self.seconds:
                self.rates.append(n / elapsed)
                return self.rates[-1]


def scale(wall_s: float, rate_before: float, rate_after: float) -> float:
    """``wall_s`` at the reference speed, from the probes around it."""
    return wall_s * 0.5 * (rate_before + rate_after) / REF_RATE
