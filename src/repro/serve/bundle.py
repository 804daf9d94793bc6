"""Freeze/export bundles: self-contained ``.rqb`` inference artifacts.

A bundle packages everything ``predict`` needs — trained parameters,
frozen buffers (e.g. the RFF projection), the architecture spec to
rebuild the module tree, and the environment fingerprint of the machine
that froze it — into one compressed, checksummed archive.  Loading a
bundle never touches training state: :func:`load_bundle` rebuilds the
model, restores its weights bitwise, and wraps it in a
:class:`~repro.serve.frozen.FrozenModel` ready for zero-compilation
serving after warmup.

Format (``.rqb``, version 1) — a ``np.savez_compressed`` archive:

* ``meta`` — UTF-8 JSON (as a uint8 array): format tag, version,
  model type name, architecture spec, default precision, freeze-time
  environment fingerprint, and any user metadata.
* ``param/<dotted name>`` — one array per ``state_dict`` entry.
* ``buffer/<dotted name>`` — frozen non-parameter arrays.
* ``__checksum__`` — SHA-256 over every other entry (same digest as
  :mod:`repro.core.checkpoint`), verified on load.

Built-in model types cover :class:`~repro.pde.model.GenericPINN`,
:class:`~repro.torq.layer.QuantumLayer`, and the paper's
:class:`~repro.core.models.MaxwellPINN` / ``MaxwellQPINN``; anything
else registers a describe/build/adapt triple via
:func:`register_model_type`.
"""

from __future__ import annotations

import json
import os
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..core.checkpoint import _named_buffers, _payload_digest

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_VERSION",
    "BundleError",
    "ModelType",
    "register_model_type",
    "registered_model_types",
    "freeze_model",
    "load_bundle",
    "verify_bundle",
    "read_bundle_meta",
]

BUNDLE_FORMAT = "rqb"
BUNDLE_VERSION = 1

_CHECKSUM_KEY = "__checksum__"


class BundleError(RuntimeError):
    """A bundle could not be written, read, or reconstructed."""


@dataclass(frozen=True)
class ModelType:
    """Serialisation contract for one freezable model class.

    ``describe(model)`` extracts a JSON-able architecture spec;
    ``build(spec, rng)`` reconstructs an architecturally identical
    module (weights are overwritten from the bundle afterwards, so the
    rng only seeds throwaway initial values); ``adapt(model)`` returns
    the serving forward — a callable mapping one ``(N, in_dim)`` input
    to the output tensor; ``in_dim(spec)`` is the expected input width.
    """

    name: str
    cls_name: str
    describe: Callable
    build: Callable
    adapt: Callable
    in_dim: Callable


_REGISTRY: dict[str, ModelType] = {}
_BY_CLASS: dict[str, str] = {}


def register_model_type(model_type: ModelType) -> None:
    """Register (or replace) a freezable model type."""
    _REGISTRY[model_type.name] = model_type
    _BY_CLASS[model_type.cls_name] = model_type.name


def registered_model_types() -> tuple[str, ...]:
    """Names of every registered model type."""
    _ensure_builtin_types()
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# Built-in model types
# ----------------------------------------------------------------------

def _adapt_coords(model):
    def fwd(points):
        from .. import autodiff as ad

        return model(ad.as_tensor(points))

    return fwd


def _adapt_xyt(model):
    # Ops MUST be resolved as module attributes at call time: the tape
    # tracer installs shims by rebinding ``repro.autodiff.getitem`` etc.,
    # so a reference captured at import would silently bypass tracing
    # (the whole forward would constant-fold to the first trace's
    # output).
    def fwd(points):
        from .. import autodiff as ad

        pts = ad.as_tensor(points)
        x = ad.getitem(pts, (slice(None), slice(0, 1)))
        y = ad.getitem(pts, (slice(None), slice(1, 2)))
        t = ad.getitem(pts, (slice(None), slice(2, 3)))
        return model(x, y, t)

    return fwd


def _describe_generic_pinn(model) -> dict:
    spec = {
        "in_dim": model.in_dim,
        "out_dim": model.out_dim,
        "hidden": model.first.out_features,
        "n_hidden": 1 + len(model.trunk),
        "quantum": None,
        "rff_features": 0,
        "rff_sigma": 1.0,
    }
    if model.rff is not None:
        spec["rff_features"] = model.rff.num_features
        spec["rff_sigma"] = float(model.rff.sigma)
    if model.quantum is not None:
        spec.update(
            quantum=model.quantum.ansatz.name,
            n_qubits=model.quantum.n_qubits,
            n_layers=model.quantum.n_layers,
            scaling=model.quantum.scaling,
        )
    return spec


def _build_generic_pinn(spec: dict, rng):
    from ..pde.model import GenericPINN

    return GenericPINN(
        in_dim=spec["in_dim"],
        out_dim=spec["out_dim"],
        hidden=spec["hidden"],
        n_hidden=spec["n_hidden"],
        quantum=spec.get("quantum"),
        n_qubits=spec.get("n_qubits", 5),
        n_layers=spec.get("n_layers", 2),
        scaling=spec.get("scaling", "acos"),
        rff_features=spec.get("rff_features", 0),
        rff_sigma=spec.get("rff_sigma", 1.0),
        rng=rng,
    )


def _describe_quantum_layer(model) -> dict:
    return {
        "n_qubits": model.n_qubits,
        "n_layers": model.n_layers,
        "ansatz": model.ansatz.name,
        "scaling": model.scaling,
        "init": model.init_strategy,
    }


def _build_quantum_layer(spec: dict, rng):
    from ..torq.layer import QuantumLayer

    return QuantumLayer(
        n_qubits=spec["n_qubits"],
        n_layers=spec["n_layers"],
        ansatz=spec["ansatz"],
        scaling=spec["scaling"],
        init=spec.get("init", "reg"),
        rng=rng,
    )


def _describe_maxwell_common(model) -> dict:
    return {
        "hidden": model.first.out_features,
        "rff_features": model.rff.num_features,
        "rff_sigma": float(model.rff.sigma),
    }


def _describe_maxwell_pinn(model) -> dict:
    spec = _describe_maxwell_common(model)
    spec["depth"] = 1 + len(model.trunk)
    return spec


def _build_maxwell_pinn(spec: dict, rng):
    from ..core.models import MaxwellPINN

    return MaxwellPINN(
        depth=spec["depth"],
        rng=rng,
        hidden=spec["hidden"],
        rff_features=spec["rff_features"],
        rff_sigma=spec["rff_sigma"],
    )


def _describe_maxwell_qpinn(model) -> dict:
    spec = _describe_maxwell_common(model)
    spec.update(
        ansatz=model.quantum.ansatz.name,
        scaling=model.quantum.scaling,
        n_qubits=model.quantum.n_qubits,
        n_layers=model.quantum.n_layers,
        n_classical_hidden=1 + len(model.trunk),
    )
    return spec


def _build_maxwell_qpinn(spec: dict, rng):
    from ..core.models import MaxwellQPINN

    return MaxwellQPINN(
        ansatz=spec["ansatz"],
        scaling=spec["scaling"],
        n_qubits=spec["n_qubits"],
        n_layers=spec["n_layers"],
        rng=rng,
        hidden=spec["hidden"],
        rff_features=spec["rff_features"],
        rff_sigma=spec["rff_sigma"],
        n_classical_hidden=spec["n_classical_hidden"],
    )


def _ensure_builtin_types() -> None:
    if "generic_pinn" in _REGISTRY:
        return
    register_model_type(ModelType(
        name="generic_pinn",
        cls_name="GenericPINN",
        describe=_describe_generic_pinn,
        build=_build_generic_pinn,
        adapt=_adapt_coords,
        in_dim=lambda spec: spec["in_dim"],
    ))
    register_model_type(ModelType(
        name="quantum_layer",
        cls_name="QuantumLayer",
        describe=_describe_quantum_layer,
        build=_build_quantum_layer,
        adapt=_adapt_coords,
        in_dim=lambda spec: spec["n_qubits"],
    ))
    register_model_type(ModelType(
        name="maxwell_pinn",
        cls_name="MaxwellPINN",
        describe=_describe_maxwell_pinn,
        build=_build_maxwell_pinn,
        adapt=_adapt_xyt,
        in_dim=lambda spec: 3,
    ))
    register_model_type(ModelType(
        name="maxwell_qpinn",
        cls_name="MaxwellQPINN",
        describe=_describe_maxwell_qpinn,
        build=_build_maxwell_qpinn,
        adapt=_adapt_xyt,
        in_dim=lambda spec: 3,
    ))


def _resolve_type_for(model) -> ModelType:
    _ensure_builtin_types()
    name = _BY_CLASS.get(type(model).__name__)
    if name is None:
        known = ", ".join(sorted(_BY_CLASS))
        raise BundleError(
            f"don't know how to freeze a {type(model).__name__}; "
            f"freezable classes: {known}.  Register a custom "
            "serve.ModelType via serve.register_model_type() to add it."
        )
    return _REGISTRY[name]


def _unwrap(obj):
    """Accept a trainer (anything with a ``.model`` Module) or a Module."""
    from ..nn.module import Module

    if isinstance(obj, Module):
        return obj
    inner = getattr(obj, "model", None)
    if isinstance(inner, Module):
        return inner
    raise BundleError(
        f"freeze_model needs a Module or a trainer exposing .model, "
        f"got {type(obj).__name__}"
    )


# ----------------------------------------------------------------------
# Write / read
# ----------------------------------------------------------------------

def freeze_model(model_or_trainer, path, precision: str = "float64",
                 metadata: dict | None = None) -> Path:
    """Export a trained model (or its trainer) as a ``.rqb`` bundle.

    ``precision`` records the default serving tier
    (``load_bundle(path)`` uses it unless overridden).  Returns the
    written path.  The write is atomic (tmp + fsync + rename) and the
    archive carries a SHA-256 payload digest, so a torn or bit-flipped
    bundle is rejected at load time rather than served.
    """
    from ..obs.envinfo import env_fingerprint

    model = _unwrap(model_or_trainer)
    mtype = _resolve_type_for(model)
    spec = mtype.describe(model)
    meta = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "model_type": mtype.name,
        "arch": spec,
        "precision": str(precision),
        "env_fingerprint": env_fingerprint(),
        "created_unix": time.time(),
        "metadata": dict(metadata or {}),
    }
    payload: dict[str, np.ndarray] = {
        "meta": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
        ),
    }
    for name, value in model.state_dict().items():
        payload[f"param/{name}"] = value
    for name, _module, _attr, value in _named_buffers(model):
        payload[f"buffer/{name}"] = value
    payload[_CHECKSUM_KEY] = np.frombuffer(
        _payload_digest(payload).encode(), dtype=np.uint8
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def _read_payload(path: Path) -> dict[str, np.ndarray]:
    try:
        with np.load(path) as data:
            return {key: data[key] for key in data.files}
    except FileNotFoundError:
        raise BundleError(f"bundle {path} does not exist") from None
    except (zipfile.BadZipFile, zlib.error, ValueError, OSError, EOFError,
            KeyError) as exc:
        raise BundleError(
            f"bundle {path} is unreadable (truncated or not an archive): "
            f"{exc}.  Re-export it with serve.freeze_model()."
        ) from exc


def _verify_payload(path: Path, payload: dict) -> dict:
    stored = payload.pop(_CHECKSUM_KEY, None)
    if stored is None:
        raise BundleError(
            f"bundle {path} carries no checksum — not a .rqb bundle "
            "(or written by an incompatible tool)"
        )
    expected = bytes(stored).decode()
    actual = _payload_digest(payload)
    if actual != expected:
        raise BundleError(
            f"bundle {path} failed checksum validation "
            f"(stored {expected[:12]}…, recomputed {actual[:12]}…) — "
            "the file is corrupt; re-export it with serve.freeze_model()."
        )
    if "meta" not in payload:
        raise BundleError(f"bundle {path} has no meta record")
    meta = json.loads(bytes(payload["meta"]).decode())
    if meta.get("format") != BUNDLE_FORMAT:
        raise BundleError(
            f"bundle {path} declares format {meta.get('format')!r}, "
            f"expected {BUNDLE_FORMAT!r}"
        )
    if int(meta.get("version", -1)) > BUNDLE_VERSION:
        raise BundleError(
            f"bundle {path} is format version {meta.get('version')}, but "
            f"this build reads up to version {BUNDLE_VERSION} — upgrade "
            "repro or re-export the bundle from this version."
        )
    return meta


def verify_bundle(path) -> dict:
    """Validate checksum + format of ``path``; return its meta dict.

    Raises :class:`BundleError` with an actionable message on a missing,
    truncated, corrupt, or incompatible bundle.
    """
    path = Path(path)
    return _verify_payload(path, _read_payload(path))


def read_bundle_meta(path) -> dict:
    """Alias of :func:`verify_bundle` (checksum included — never trust
    an unverified header)."""
    return verify_bundle(path)


def _rebuild(path: Path, payload: dict, meta: dict):
    _ensure_builtin_types()
    name = meta.get("model_type")
    mtype = _REGISTRY.get(name)
    if mtype is None:
        raise BundleError(
            f"bundle {path} was frozen from model type {name!r}, which is "
            "not registered in this process; call "
            "serve.register_model_type() before load_bundle()."
        )
    try:
        model = mtype.build(meta["arch"], np.random.default_rng(0))
    except Exception as exc:
        raise BundleError(
            f"bundle {path}: rebuilding model type {name!r} from its "
            f"architecture spec failed: {exc}"
        ) from exc
    state = {
        key[len("param/"):]: payload[key]
        for key in payload if key.startswith("param/")
    }
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise BundleError(
            f"bundle {path}: parameters do not fit the rebuilt "
            f"{name!r} architecture ({exc}) — the bundle spec and weights "
            "disagree; re-export it."
        ) from exc
    homes = {
        bname: (module, attr)
        for bname, module, attr, _ in _named_buffers(model)
    }
    for key in payload:
        if not key.startswith("buffer/"):
            continue
        bname = key[len("buffer/"):]
        if bname not in homes:
            raise BundleError(
                f"bundle {path}: frozen buffer {bname!r} has no home in "
                f"the rebuilt {name!r} model"
            )
        module, attr = homes[bname]
        setattr(module, attr, payload[key].copy())
    return model, mtype


def load_bundle(path, precision: str | None = None, max_batch: int = 1024,
                min_batch: int = 32):
    """Load a ``.rqb`` bundle into a ready-to-serve ``FrozenModel``.

    Verifies the checksum, rebuilds the architecture from the stored
    spec, restores parameters and buffers bitwise, and wraps the model
    for batched inference.  ``precision`` overrides the tier recorded at
    freeze time (``"float64"`` replays the forward-only tape bitwise;
    ``"float32"`` serves quantum layers through the lowered planned
    executor).  Call :meth:`FrozenModel.warmup` (or let the server do
    it) before steady-state traffic.
    """
    from .frozen import FrozenModel

    path = Path(path)
    payload = _read_payload(path)
    meta = _verify_payload(path, payload)
    model, mtype = _rebuild(path, payload, meta)
    return FrozenModel(
        model,
        model_type=mtype,
        spec=meta["arch"],
        meta=meta,
        precision=precision or meta.get("precision", "float64"),
        max_batch=max_batch,
        min_batch=min_batch,
    )
