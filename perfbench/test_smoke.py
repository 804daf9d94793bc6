"""Tiny-size smoke test of the benchmark itself.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the checkout
root.  Every workload runs once untraced and once traced at ``--tiny``
size; the result line must follow the contract in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float | int)
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        assert "layer table" in proc.stdout


def test_workloads_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    import run as bench

    assert list(bench.WORKLOADS) == WORKLOADS
    for w in SPEC["workloads"]:
        spec = bench.WORKLOADS[w["name"]]
        if spec["kind"] == "serve":
            # BENCHMARK.json quotes each fixed open-loop rate.
            assert f"{spec['rate']:g} req/s" in w["why"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
