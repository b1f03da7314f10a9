"""evaluate split over forked processes: the same bits, errors and output.

``_eval_processes`` is the seam: the tests pin it to choose the process
count, whatever the host's cores and ``ATTN_ENS_THREADS``.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import attnens
import attnens.trainer as trainer_module
from attnens.data import Dataset, Sample, crop_bbox
from attnens.errors import NumericError, ShapeError
from attnens.model import build_model
from attnens.trainer import evaluate
from test_trainer import tiny_model_config

SRC = Path(attnens.__file__).resolve().parent.parent
UNSET_IN_CHILD = ("PYTHONUNBUFFERED", "ATTN_ENS_THREADS", *attnens._BLAS_THREAD_VARS)


def split_dataset(n, variant="plain"):
    """n samples for the 16x16 tiny model: float images at the input size
    ("plain"), 20x20 uint8 images that are resized ("resized"), or those
    cropped to boxes of several sizes first ("cropped")."""
    rng = np.random.default_rng(n)
    samples = []
    for i in range(n):
        if variant == "plain":
            samples.append(Sample(f"s{i}", rng.random((3, 16, 16), dtype=np.float32), i % 3))
            continue
        image = rng.integers(0, 256, (3, 20, 20), dtype=np.uint8)
        sample = Sample(f"s{i}", image, i % 3, (i % 5, i % 3, 12 + i % 8, 10 + i % 10))
        samples.append(crop_bbox(sample) if variant == "cropped" else sample)
    return Dataset(tuple(samples), ("c0", "c1", "c2"))


def evaluate_over(monkeypatch, processes, *args, **kwargs):
    """evaluate with its batches split over ``processes`` processes, or over
    one per batch when there are fewer; no child may outlive the call."""
    monkeypatch.setattr(
        trainer_module, "_eval_processes", lambda batches: min(batches, processes)
    )
    try:
        return evaluate(*args, **kwargs)
    finally:
        assert multiprocessing.active_children() == []


def run_python(code, **env):
    """stdout of ``code`` run by a fresh interpreter that imports this attnens.

    Its stdout is a pipe and block-buffered, even where PYTHONUNBUFFERED is
    set, and no thread count is inherited: ``env`` sets each one.
    """
    env = {
        **{k: v for k, v in os.environ.items() if k not in UNSET_IN_CHILD},
        "PYTHONPATH": str(SRC),
        **env,
    }
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("variant", ["plain", "resized", "cropped"])
@pytest.mark.parametrize("n", [1, 15, 16, 17, 33, 100])
def test_probabilities_keep_their_bits(monkeypatch, n, variant):
    model = build_model(tiny_model_config(), seed=0)
    ds = split_dataset(n, variant)
    runs = []
    for processes in (1, 2, 3):
        acc, matrix = evaluate_over(monkeypatch, processes, model, ds)
        runs.append((acc, matrix.sample_ids, matrix.probs.tobytes()))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_caller_runs_only_the_first_share(monkeypatch):
    # 7 batches over 3 processes: shares of 2, 2 and 3 batches, the first
    # run here and the others in children, whose calls this list never sees.
    calls = []
    original = trainer_module._batch_probs

    def batch_probs(model, samples):
        calls.append(len(samples))
        return original(model, samples)

    monkeypatch.setattr(trainer_module, "_batch_probs", batch_probs)
    model = build_model(tiny_model_config(), seed=0)
    evaluate_over(monkeypatch, 3, model, split_dataset(100), batch_size=16)
    assert calls == [16, 16]


def corrupted(faults):
    """16 samples in 4 batches of 4; ``faults`` maps a batch to the fault of
    its first sample: a NaN pixel (NumericError from the softmax) or one
    channel (ShapeError)."""
    ds = split_dataset(16)
    samples = list(ds.samples)
    for batch, fault in faults.items():
        s = samples[4 * batch]
        if fault == "nan":
            image = s.image.copy()
            image[0, 3, 3] = np.nan
        else:
            image = s.image[:1]
        samples[4 * batch] = Sample(s.id, image, s.label)
    return Dataset(tuple(samples), ds.class_names)


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize(
    "faults, error",
    [
        ({3: "nan"}, NumericError),
        ({3: "channels"}, ShapeError),
        ({1: "nan", 3: "channels"}, NumericError),
        ({1: "channels", 3: "nan"}, ShapeError),
    ],
    ids=["child_numeric", "child_shape", "numeric_first", "shape_first"],
)
def test_first_failing_batch_raises_its_own_error(monkeypatch, processes, faults, error):
    # Batch 3 runs in a child at 2 and at 3 processes; batch 1 runs here at 2
    # and in the first child at 3.
    model = build_model(tiny_model_config(), seed=0)
    ds = corrupted(faults)
    with pytest.raises(error) as alone:
        evaluate_over(monkeypatch, 1, model, ds, batch_size=4)
    with pytest.raises(error) as split:
        evaluate_over(monkeypatch, processes, model, ds, batch_size=4)
    assert type(split.value) is type(alone.value)
    assert str(split.value) == str(alone.value)


@pytest.mark.parametrize("error", [ShapeError, KeyboardInterrupt])
def test_caller_failure_kills_running_children(monkeypatch, error):
    # The children would sleep for a minute; the caller's first batch fails
    # at once, and evaluate must kill and join them rather than wait.
    caller = os.getpid()

    def batch_probs(model, samples):
        if os.getpid() == caller:
            raise error("the caller's batch failed")
        time.sleep(60)

    monkeypatch.setattr(trainer_module, "_batch_probs", batch_probs)
    model = build_model(tiny_model_config(), seed=0)
    started = time.monotonic()
    with pytest.raises(error):
        evaluate_over(monkeypatch, 3, model, split_dataset(100))
    assert time.monotonic() - started < 30


def _evaluate_in_pool_worker(n):
    model = build_model(tiny_model_config(), seed=0)
    _, matrix = evaluate(model, split_dataset(n))
    return trainer_module._eval_processes(10), matrix.probs.tobytes()


def test_pool_worker_evaluates_in_one_process(monkeypatch):
    # The rule would split here (given the cores), but not in the worker.
    monkeypatch.setattr(trainer_module, "_one_blas_thread", True)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        processes, probs = pool.apply_async(_evaluate_in_pool_worker, (33,)).get(timeout=60)
    assert processes == 1
    model = build_model(tiny_model_config(), seed=0)
    _, matrix = evaluate_over(monkeypatch, 1, model, split_dataset(33))
    assert probs == matrix.probs.tobytes()


def test_second_thread_keeps_one_process(monkeypatch):
    monkeypatch.setattr(trainer_module, "_one_blas_thread", True)
    model = build_model(tiny_model_config(), seed=0)
    ds = split_dataset(33)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert trainer_module._eval_processes(10) == 1
        _, matrix = evaluate(model, ds)
        assert multiprocessing.active_children() == []
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    _, alone = evaluate_over(monkeypatch, 1, model, ds)
    assert matrix.probs.tobytes() == alone.probs.tobytes()


def test_text_printed_before_the_split_appears_once():
    # stdout is a pipe, so the line waits in the buffer until it is flushed;
    # a child forked with it still there would print it again.
    out = run_python(
        "import attnens.trainer as trainer\n"
        "import numpy as np\n"
        "from attnens.data import Dataset, Sample\n"
        "from attnens.model import build_model, desk_config\n"
        "trainer._eval_processes = lambda batches: min(batches, 2)\n"
        "print('printed before evaluate')\n"
        "rng = np.random.default_rng(0)\n"
        "images = rng.random((40, 3, 48, 48), dtype=np.float32)\n"
        "ds = Dataset(tuple(Sample(f's{i}', im, i % 3) for i, im in enumerate(images)), "
        "('a', 'b', 'c'))\n"
        "trainer.evaluate(build_model(desk_config(3), seed=0), ds)\n"
    )
    assert out == "printed before evaluate\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks")
@pytest.mark.parametrize(
    "env, before, processes",
    [
        ({"ATTN_ENS_THREADS": "1"}, "", "min"),
        ({}, "", "1"),
        ({"ATTN_ENS_THREADS": "2"}, "", "1"),
        ({"ATTN_ENS_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, "", "1"),
        ({"ATTN_ENS_THREADS": "1"}, "import numpy\n", "1"),
        (
            {"ATTN_ENS_THREADS": "1"},
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n",
            "1",
        ),
    ],
    ids=["pinned", "unset", "two_threads", "blas_preset", "numpy_first", "one_cpu_mask"],
)
def test_process_rule(env, before, processes):
    # A fresh interpreter, since the pin is read when attnens is imported.
    # Only a pin to one thread, set before numpy loads BLAS, splits: more
    # BLAS threads per process would oversubscribe the cores.
    out = run_python(
        "import os\n"
        + before
        + "import attnens.trainer as trainer\n"
        "print([trainer._eval_processes(b) for b in (1, 2, 3, 57)], "
        "len(os.sched_getaffinity(0)))\n",
        **env,
    )
    got, cpus = out.rsplit(" ", 1)
    expected = [min(b, int(cpus)) if processes == "min" else 1 for b in (1, 2, 3, 57)]
    assert got == str(expected)
