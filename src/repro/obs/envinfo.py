"""Runtime environment fingerprints for benchmark reports.

Benchmark JSON artifacts (``BENCH_torq.json``, ``BENCH_autodiff.json``,
``BENCH_serve.json``) are committed and compared across machines and PRs,
so every report carries an ``environment`` block answering "what ran
this": interpreter and NumPy versions, the physical CPU model, the BLAS
NumPy was built against, the usable core count and the peak RSS.  A
wall-clock regression that coincides with a different CPU or BLAS line
is a machine change, not a code change.

Everything here degrades gracefully: unreadable ``/proc/cpuinfo`` or an
unexpected ``np.__config__`` layout yields ``"unknown"`` fields, never
an exception — benchmarks must not fail because a fingerprint did.
"""

from __future__ import annotations

import functools
import hashlib
import platform
import sys

import numpy as np

__all__ = [
    "cpu_model",
    "blas_info",
    "env_fingerprint",
    "peak_rss_bytes",
    "environment_info",
]


def cpu_model() -> str:
    """The CPU model string (``/proc/cpuinfo`` on Linux, else platform)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.lower().startswith(("model name", "hardware", "cpu model")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def blas_info() -> str:
    """NumPy's BLAS backend as ``"<name> <version>"`` (best effort)."""
    try:
        cfg = getattr(np.__config__, "CONFIG", None)
        if isinstance(cfg, dict):
            blas = cfg.get("Build Dependencies", {}).get("blas", {})
            name = blas.get("name")
            if name:
                version = blas.get("version", "")
                return f"{name} {version}".strip()
    except Exception:  # pragma: no cover - defensive
        pass
    return "unknown"


@functools.cache
def env_fingerprint() -> str:
    """A short stable hash of the numeric environment.

    Digest of the facts that change which kernels win a microbenchmark:
    interpreter version, NumPy version, CPU model, BLAS backend, and
    machine architecture.  Serve bundles record it at freeze time, and
    benchmark reports carry it.  Memoised: it cannot change within a
    process.
    """
    raw = "|".join(
        (
            platform.python_version(),
            np.__version__,
            platform.machine(),
            cpu_model(),
            blas_info(),
        )
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:12]


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes.  Monotone over the process lifetime — report it *after* the
    workload to capture its peak.
    """
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # pragma: no cover - macOS units
            return int(rss)
        return int(rss) * 1024
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


def _available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware, 0 unknown).

    Timings are meaningless without the core budget they ran under — a
    cgroup-pinned CI runner reports the same ``cpu`` model string as a
    64-core box.
    """
    try:
        import os

        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        import os

        return os.cpu_count() or 0


def environment_info() -> dict:
    """The standard ``environment`` block for benchmark reports."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "cpu_count": _available_cpus(),
        "blas": blas_info(),
        "fingerprint": env_fingerprint(),
        "peak_rss_bytes": peak_rss_bytes(),
    }


if __name__ == "__main__":  # pragma: no cover - manual convenience
    import json

    json.dump(environment_info(), sys.stdout, indent=2)
    sys.stdout.write("\n")
