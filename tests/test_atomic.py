"""Artifact writers replace whole files: a write that fails partway leaves
the old file byte for byte, and no temporary behind."""

import errno
import os

import numpy as np
import pytest

import attnens.atomic as atomic_module
from attnens.atomic import atomic_write
from attnens.checkpoint import save_model
from attnens.cli import _write_json
from attnens.ensemble import PredictionMatrix, write_matrix
from attnens.model import ConvBlockConfig, ModelConfig, build_model
from attnens.ppm import write_ppm
from attnens.synth import SynthSpec, write_synth_dataset
from attnens.trainer import EpochStats, write_history_csv


class _DiskFills:
    """File proxy whose writes fail with ENOSPC once ``budget`` bytes are in."""

    def __init__(self, f, budget):
        self._f, self._budget = f, budget

    def write(self, data):
        if len(data) > self._budget:
            self._f.write(data[: self._budget])
            self._budget = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._budget -= len(data)
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.fixture
def disk_fills(monkeypatch):
    def install(budget=12):
        def failing_open(*args, **kwargs):
            return _DiskFills(open(*args, **kwargs), budget)

        monkeypatch.setattr(atomic_module, "open", failing_open, raising=False)

    return install


def _model(seed):
    config = ModelConfig(
        input_size=(8, 8, 3), backbone=(ConvBlockConfig(4),), num_classes=2, head=(4,)
    )
    return build_model(config, seed)


def _history(loss):
    return [EpochStats(1, loss, 0.5, 0.5, 0.1), EpochStats(2, loss / 2, 0.75, 0.5, 0.1)]


def _matrix(p):
    return PredictionMatrix("m", ("a", "b"), np.array([[p, 1 - p], [1 - p, p]]))


def _pixels(value):
    return np.full((4, 5, 3), value, dtype=np.uint8)


# name -> (write(path, version), the file that write produces under path)
WRITERS = {
    "save_model": (lambda path, v: save_model(_model(v), path), None),
    "write_history_csv": (lambda path, v: write_history_csv(_history(1.0 + v), path), None),
    "_write_json": (lambda path, v: _write_json({"seed": v, "pad": "x" * 40}, path), None),
    "write_matrix": (lambda path, v: write_matrix(_matrix(0.25 + v / 4), path), None),
    "write_ppm": (lambda path, v: write_ppm(path, _pixels(10 + v)), None),
    "write_synth_dataset": (
        lambda path, v: write_synth_dataset(
            SynthSpec(num_classes=2, per_class=2, image_size=16, seed=v), path
        ),
        "labels.csv",
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_old_file(tmp_path, disk_fills, name):
    write, inner = WRITERS[name]
    path = tmp_path / "artifact"
    target = path / inner if inner else path
    write(path, 0)
    old = target.read_bytes()
    listing = sorted(os.listdir(tmp_path)), sorted(os.listdir(target.parent))
    disk_fills()
    with pytest.raises(OSError) as info:
        write(path, 1)
    assert info.value.errno == errno.ENOSPC
    assert target.read_bytes() == old
    assert (sorted(os.listdir(tmp_path)), sorted(os.listdir(target.parent))) == listing


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_rewrite_replaces_file(tmp_path, name):
    write, inner = WRITERS[name]
    path = tmp_path / "artifact"
    target = path / inner if inner else path
    write(path, 1)
    fresh = target.read_bytes()
    write(path, 0)
    assert target.read_bytes() != fresh
    write(path, 1)
    assert target.read_bytes() == fresh


def test_failure_without_old_file_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "new.txt") as f:
            f.write("partial")
            raise RuntimeError("interrupted")
    assert os.listdir(tmp_path) == []


def test_temporary_lives_beside_target(tmp_path):
    with atomic_write(tmp_path / "out.bin", "wb") as f:
        assert os.path.dirname(f.name) == str(tmp_path)
        assert not (tmp_path / "out.bin").exists()
        f.write(b"done")
    assert (tmp_path / "out.bin").read_bytes() == b"done"
    assert os.listdir(tmp_path) == ["out.bin"]
