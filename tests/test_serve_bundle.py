"""Freeze/export bundle tests: round trips, corruption, restarts."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import serve
from repro.pde.model import GenericPINN
from repro.serve.bundle import _resolve_type_for
from repro.serve.frozen import FrozenModel
from repro.torq.layer import QuantumLayer

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def make_model(seed=0):
    return GenericPINN(2, 1, hidden=12, n_hidden=2,
                       quantum="strongly_entangling", n_qubits=3,
                       n_layers=2, rng=np.random.default_rng(seed))


def frozen_from_live(model, **kw):
    mtype = _resolve_type_for(model)
    return FrozenModel(model, model_type=mtype, spec=mtype.describe(model),
                       **kw)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

def test_roundtrip_bitwise_generic_pinn(tmp_path, rng):
    model = make_model()
    path = serve.freeze_model(model, tmp_path / "m.rqb")
    live = frozen_from_live(model, min_batch=4, max_batch=16)
    live.warmup(batch_sizes=[8])
    loaded = serve.load_bundle(path, min_batch=4, max_batch=16)
    loaded.warmup(batch_sizes=[8])
    pts = rng.uniform(-1, 1, size=(7, 2))
    assert np.array_equal(live.predict(pts), loaded.predict(pts))
    live.unpin()
    loaded.unpin()


def test_roundtrip_bitwise_quantum_layer(tmp_path, rng):
    layer = QuantumLayer(n_qubits=3, n_layers=2,
                         rng=np.random.default_rng(5))
    path = serve.freeze_model(layer, tmp_path / "q.rqb")
    a = serve.load_bundle(path, min_batch=2, max_batch=8)
    b = serve.load_bundle(path, min_batch=2, max_batch=8)
    a.warmup(batch_sizes=[4])
    b.warmup(batch_sizes=[4])
    acts = rng.uniform(-1, 1, size=(3, 3))
    assert np.array_equal(a.predict(acts), b.predict(acts))
    a.unpin()
    b.unpin()


def test_roundtrip_maxwell_qpinn(tmp_path, rng):
    from repro.core.models import MaxwellQPINN

    model = MaxwellQPINN(n_qubits=3, n_layers=1, hidden=8, rff_features=4,
                         n_classical_hidden=1,
                         rng=np.random.default_rng(2))
    path = serve.freeze_model(model, tmp_path / "mx.rqb")
    loaded = serve.load_bundle(path, min_batch=2, max_batch=8)
    loaded.warmup(batch_sizes=[4])
    pts = rng.uniform(-1, 1, size=(3, 3))
    out = loaded.predict(pts)
    # vs the source model, define-by-run (row-stable replay is within
    # ~1 ulp of BLAS, not bitwise)
    from repro.autodiff import as_tensor, no_grad

    with no_grad():
        ref = model(as_tensor(pts[:, 0:1]), as_tensor(pts[:, 1:2]),
                    as_tensor(pts[:, 2:3])).data
    assert np.max(np.abs(out - ref)) < 1e-12
    assert loaded._compiled.disabled is None
    loaded.unpin()


def test_bundle_meta_contents(tmp_path):
    model = make_model()
    path = serve.freeze_model(model, tmp_path / "m.rqb",
                              metadata={"run": "unit"})
    meta = serve.verify_bundle(path)
    assert meta["format"] == serve.BUNDLE_FORMAT
    assert meta["version"] == serve.BUNDLE_VERSION
    assert meta["model_type"] == "generic_pinn"
    assert meta["arch"]["quantum"] == "strongly_entangling"
    assert meta["metadata"] == {"run": "unit"}
    assert meta["env_fingerprint"]


def test_trainer_unwrap(tmp_path):
    class FakeTrainer:
        model = make_model()

    path = serve.freeze_model(FakeTrainer(), tmp_path / "t.rqb")
    assert serve.verify_bundle(path)["model_type"] == "generic_pinn"


def test_float32_tier_roundtrip(tmp_path, rng):
    layer = QuantumLayer(n_qubits=4, n_layers=2,
                         rng=np.random.default_rng(1))
    path = serve.freeze_model(layer, tmp_path / "q32.rqb",
                              precision="float32")
    f32 = serve.load_bundle(path, min_batch=2, max_batch=8)
    assert f32.precision == "float32"
    f32.warmup(batch_sizes=[4])
    f64 = serve.load_bundle(path, precision="float64", min_batch=2,
                            max_batch=8)
    f64.warmup(batch_sizes=[4])
    acts = rng.uniform(-1, 1, size=(4, 4))
    from repro.lower.budget import expectation_budget

    gate_count = 4 + 4 * 2 * 4  # embeds + rough ansatz size
    diff = np.max(np.abs(f32.predict(acts) - f64.predict(acts)))
    assert diff <= expectation_budget("float32", 4, gate_count)
    f32.unpin()
    f64.unpin()


def test_float32_tier_keeps_grad_method(rng):
    """A float32 FrozenModel sets only each quantum layer's precision:
    the inference-only tier runs whatever ``grad_method`` the layers
    were built with."""
    model = make_model()
    assert model.quantum.grad_method == "backprop"
    f32 = frozen_from_live(model, precision="float32", min_batch=2,
                           max_batch=4)
    out = f32.predict(rng.uniform(-1, 1, size=(3, 2)))
    assert out.shape == (3, 1)
    assert (model.quantum.precision, model.quantum.grad_method) == (
        "float32", "backprop")


def test_float32_predict_never_rebinds_after_warmup(tmp_path, rng,
                                                   monkeypatch):
    """Warmup binds one planned execution per bucket of the default
    ladder (32…1024, six buckets); mixed-size predicts afterwards must
    reuse them — zero ``PlannedExecution`` constructions."""
    from repro.lower.inplace import PlannedExecution

    layer = QuantumLayer(n_qubits=3, n_layers=1,
                         rng=np.random.default_rng(2))
    path = serve.freeze_model(layer, tmp_path / "q32.rqb",
                              precision="float32")
    frozen = serve.load_bundle(path)
    frozen.warmup()
    built = []
    original = PlannedExecution.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PlannedExecution, "__init__", counting)
    for n in (1, 700, 40, 300, 1024, 90, 2000, 33):
        out = frozen.predict(rng.uniform(-1, 1, size=(n, 3)))
        assert out.shape == (n, 3)
    assert built == []
    frozen.unpin()


def test_float64_predict_never_traces_after_warmup(tmp_path, rng,
                                                  monkeypatch):
    """Warmup traces one forward-only tape executor per bucket of the
    default ladder (32…1024, six buckets) and runs its checked first
    replay; mixed-size predicts afterwards, some above ``max_batch``,
    must replay them — zero ``TapeExecutor`` constructions, and no new
    tape miss, retrace, fallback or disabled reason."""
    from repro.autodiff.tape import TapeExecutor

    path = serve.freeze_model(make_model(), tmp_path / "m.rqb",
                              precision="float64")
    frozen = serve.load_bundle(path)
    frozen.warmup()
    executors = list(frozen._compiled._cache.values())
    assert len(executors) == 6
    assert not any(ex.needs_validation for ex in executors)
    keys = ("misses", "retraces", "fallbacks", "disabled")
    before = {k: frozen.cache_info()["tape"][k] for k in keys}
    assert before["disabled"] is None
    built = []
    original = TapeExecutor.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TapeExecutor, "__init__", counting)
    for n in (1, 700, 40, 300, 1024, 90, 2000, 33):
        out = frozen.predict(rng.uniform(-1, 1, size=(n, 2)))
        assert out.shape == (n, 1)
    assert built == []
    assert {k: frozen.cache_info()["tape"][k] for k in keys} == before
    frozen.unpin()


# ----------------------------------------------------------------------
# Corruption and bad inputs
# ----------------------------------------------------------------------

def test_corrupted_bundle_rejected(tmp_path):
    path = serve.freeze_model(make_model(), tmp_path / "m.rqb")
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(serve.BundleError):
        serve.load_bundle(path)


def test_truncated_bundle_rejected(tmp_path):
    path = serve.freeze_model(make_model(), tmp_path / "m.rqb")
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
    with pytest.raises(serve.BundleError, match="unreadable|checksum"):
        serve.verify_bundle(path)


def test_missing_bundle_actionable(tmp_path):
    with pytest.raises(serve.BundleError, match="does not exist"):
        serve.load_bundle(tmp_path / "nope.rqb")


def test_unknown_model_type_actionable(tmp_path):
    path = serve.freeze_model(make_model(), tmp_path / "m.rqb")
    # Rewrite the meta to an unregistered type, re-checksumming so only
    # the type lookup fails.
    from repro.core.checkpoint import _payload_digest

    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    meta = json.loads(bytes(payload["meta"]).decode())
    meta["model_type"] = "martian_net"
    payload["meta"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8)
    payload.pop("__checksum__")
    payload["__checksum__"] = np.frombuffer(
        _payload_digest(payload).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload)
    with pytest.raises(serve.BundleError, match="register_model_type"):
        serve.load_bundle(path)


def test_freeze_unsupported_object(tmp_path):
    with pytest.raises(serve.BundleError, match="Module or a trainer"):
        serve.freeze_model(object(), tmp_path / "x.rqb")


def test_checksum_guards_params(tmp_path):
    """A flipped parameter byte inside the archive fails the digest."""
    path = serve.freeze_model(make_model(), tmp_path / "m.rqb")
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    name = next(k for k in payload if k.startswith("param/"))
    payload[name] = payload[name] + 1e-3
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **payload)
    with pytest.raises(serve.BundleError, match="checksum"):
        serve.verify_bundle(path)


# ----------------------------------------------------------------------
# Process restart
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_bundle_survives_process_restart(tmp_path, rng):
    model = make_model(seed=9)
    path = serve.freeze_model(model, tmp_path / "m.rqb")
    pts = rng.uniform(-1, 1, size=(5, 2))
    here = frozen_from_live(model, min_batch=4, max_batch=8)
    here.warmup(batch_sizes=[8])
    expected = here.predict(pts)
    here.unpin()
    np.save(tmp_path / "pts.npy", pts)
    script = (
        "import sys, numpy as np\n"
        f"sys.path.insert(0, {str(REPO_SRC)!r})\n"
        "from repro import serve\n"
        f"frozen = serve.load_bundle({str(path)!r}, min_batch=4, "
        "max_batch=8)\n"
        "frozen.warmup(batch_sizes=[8])\n"
        f"pts = np.load({str(tmp_path / 'pts.npy')!r})\n"
        f"np.save({str(tmp_path / 'out.npy')!r}, frozen.predict(pts))\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=240)
    out = np.load(tmp_path / "out.npy")
    assert np.array_equal(out, expected)
