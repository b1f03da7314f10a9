"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

Each case starts ``perfbench/run.py --tiny`` as a child process and waits for
it, so a run here takes seconds rather than the minutes of a real one.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TRAIN_IMAGES = {"train_scratch": 6 * 3, "transfer_frozen": 5 * 3}  # classes x round(0.75 * 4)


def run(workload: str, trace: int, seed: int = 101, cwd: Path = ROOT):
    script = cwd / "perfbench" / "run.py"
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, seed: int = 101) -> dict:
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    assert last["failed"] == 0, proc.stderr
    assert last["correct"] is True
    return last


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = result(workload, trace=0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    # A second seed from the untraced case: any seed must run without edits.
    printed = result(workload, trace=1, seed=102)["metrics"]
    assert {name: m["unit"] for name, m in printed.items()} == declared("per_layer")
    metrics = {name: m["value"] for name, m in printed.items()}
    if workload == "predict_ensemble":
        assert metrics["layers.conv2d_backward.ms"] == 0
        assert metrics["imageops.resize_bilinear.calls"] > 0
        assert metrics["model.forward_cached.eval_batch_ms.samples"] > 0
    else:
        assert metrics["imageops.augment.calls"] == (
            metrics["trainer.train.calls"] * TRAIN_IMAGES[workload]
        )
        assert metrics["trainer.step_ms.samples"] > 0
        expected_ratio = 1.0 if workload == "train_scratch" else 8965 / 34677
        assert metrics["model.grad_used_ratio"] == pytest.approx(expected_ratio)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    proc = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
