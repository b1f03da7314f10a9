"""train with its frozen prefix split over forked processes: the same bits,
errors and cleanup.

``_eval_processes`` is the seam, as in ``test_eval_split``: the tests pin it
to choose the process count, whatever the host's cores and
``ATTN_ENS_THREADS``.  27 training images in batches of 4 make 7 batches,
split into shares of 2, 2 and 3 at 3 processes.
"""

import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import attnens.model as model_module
import attnens.trainer as trainer_module
from attnens.data import Dataset, Sample, float_image
from attnens.errors import NumericError
from attnens.imageops import AugmentConfig, augment
from attnens.layers import ForwardMode
from attnens.model import FREEZE_BACKBONE, build_model, forward_cached, live_start, transfer
from attnens.seeding import derive_seed
from attnens.synth import SynthSpec, synth_dataset
from attnens.trainer import (
    TrainConfig,
    epoch_permutation,
    evaluate,
    softmax_cross_entropy_grad,
    train,
    write_history_csv,
)
from test_trainer import tiny_model_config

CFG = TrainConfig(
    batch_size=4,
    epochs=2,
    learning_rate=0.05,
    momentum=0.9,
    shuffle_seed=7,
    augment=AugmentConfig(rotation_deg=15.0, h_flip=True, width_shift_frac=0.1),
)


def datasets():
    """27 uint8 training images and 9 test images, 16x16, three classes."""
    spec = SynthSpec(num_classes=3, per_class=12, image_size=16, seed=3)
    return synth_dataset(spec, "train"), synth_dataset(spec, "test")


def finetune_model(case):
    """A model whose frozen prefix ends at the GAP ("freeze"), at the head's
    dropout ("fc1_frozen"), or is empty ("nothing_frozen")."""
    source = build_model(tiny_model_config(), seed=3)
    if case == "nothing_frozen":
        return source
    model = transfer(source, source.config, FREEZE_BACKBONE, 4)
    if case == "fc1_frozen":
        model = replace(model, frozen=model.frozen | {"fc1"})
    return model


def train_over(monkeypatch, processes, *args, **kwargs):
    """train with any split over at most ``processes`` processes; no child
    may outlive the call."""
    monkeypatch.setattr(
        trainer_module, "_eval_processes", lambda batches: min(batches, processes)
    )
    try:
        return train(*args, **kwargs)
    finally:
        assert multiprocessing.active_children() == []


def run_bytes(model, history, tmp_path):
    """Parameter bytes and history.csv, whose seconds a zero timer fixes."""
    write_history_csv(history, tmp_path / "history.csv")
    params = [(p.name, p.weights.tobytes(), p.bias.tobytes()) for p in model.params]
    return params, (tmp_path / "history.csv").read_text()


def whole_network_loop(model, train_set, test_set, cfg):
    """The batch-by-batch loop with every step taped, frozen ones included:
    the reference the prefix split must reproduce bit for bit."""
    images = trainer_module._resized_images(train_set.samples, model.config.input_size)
    labels = train_set.labels()
    onehot = np.eye(model.config.num_classes, dtype=np.float32)
    velocity = {k: np.zeros_like(a) for k, a in trainer_module._live_arrays(model).items()}
    history = []
    for epoch in range(1, cfg.epochs + 1):
        order = epoch_permutation(cfg.shuffle_seed, epoch, len(train_set))
        loss_sum, hits = 0.0, 0
        for batch_no, start in enumerate(range(0, len(train_set), cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            batch = np.stack(
                [
                    augment(
                        float_image(images[i]),
                        cfg.augment,
                        derive_seed(cfg.shuffle_seed, epoch, train_set.samples[i].id),
                    )
                    for i in idx
                ]
            ).astype(np.float32, copy=False)
            mode = ForwardMode.train(derive_seed(cfg.shuffle_seed, "dropout", epoch, batch_no))
            probs, tape = forward_cached(model, batch, mode)
            targets = onehot[labels[idx]]
            grad = softmax_cross_entropy_grad(targets, probs)
            grads = trainer_module.backward(model, tape, grad)
            model, velocity = trainer_module._sgd_update(model, grads, velocity, cfg)
            loss_sum += trainer_module.cross_entropy(targets, probs) * len(idx)
            hits += int((probs.argmax(axis=1) == labels[idx]).sum())
        n = len(train_set)
        test_acc, _ = evaluate(model, test_set)
        history.append(trainer_module.EpochStats(epoch, loss_sum / n, hits / n, test_acc, 0.0))
    return model, history


@pytest.mark.parametrize("case", ["freeze", "fc1_frozen", "nothing_frozen"])
def test_parameters_and_history_keep_their_bits(monkeypatch, tmp_path, case):
    train_set, test_set = datasets()
    model = finetune_model(case)
    runs = []
    for processes in (1, 2, 3):
        trained, history = train_over(
            monkeypatch, processes, model, train_set, test_set, CFG, timer=lambda: 0.0
        )
        runs.append(run_bytes(trained, history, tmp_path))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    monkeypatch.setattr(trainer_module, "_eval_processes", lambda batches: 1)
    assert run_bytes(*whole_network_loop(model, train_set, test_set, CFG), tmp_path) == runs[0]


@pytest.mark.parametrize("case", ["freeze", "fc1_frozen", "nothing_frozen"])
def test_caller_computes_only_its_share_of_the_prefix(monkeypatch, case):
    # The children's augment calls never reach this list.  With nothing
    # frozen there is no prefix to split, so every image is augmented here.
    calls = []
    original = trainer_module.augment

    def augment(*args):
        calls.append(os.getpid())
        return original(*args)

    monkeypatch.setattr(trainer_module, "augment", augment)
    train_set, test_set = datasets()
    train_over(monkeypatch, 3, finetune_model(case), train_set, test_set, CFG)
    # The caller's share is the first 2 of 7 batches, 8 images, each epoch.
    expected = CFG.epochs * (len(train_set) if case == "nothing_frozen" else 8)
    assert calls == [os.getpid()] * expected


def poisoned(train_set, batches):
    """``train_set`` as float images, with a NaN pixel in the first image of
    each of the epoch-1 ``batches``."""
    order = epoch_permutation(CFG.shuffle_seed, 1, len(train_set))
    marked = {int(order[CFG.batch_size * b]) for b in batches}
    samples = []
    for i, s in enumerate(train_set.samples):
        image = s.image.astype(np.float32) / np.float32(255.0)
        if i in marked:
            image[0, 5, 5] = np.nan
        samples.append(Sample(s.id, image, s.label))
    return Dataset(tuple(samples), train_set.class_names)


def refuse_non_finite_prefix(monkeypatch):
    """Make a non-finite prefix input fail in the prefix itself, in whichever
    process computes it, rather than at the head's softmax."""
    original = trainer_module.forward_steps

    def forward_steps(model, x, *args):
        if not np.isfinite(x).all():
            raise NumericError("non-finite prefix input")
        return original(model, x, *args)

    monkeypatch.setattr(trainer_module, "forward_steps", forward_steps)


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("in_prefix", [False, True], ids=["at_the_head", "in_the_prefix"])
@pytest.mark.parametrize("batches", [(6,), (1, 5)], ids=["child_batch", "earlier_batch_first"])
def test_numeric_error_carries_the_one_process_message(monkeypatch, processes, in_prefix, batches):
    # Batch 6 is in a child's share at 2 and 3 processes; batch 1 is the
    # caller's, and batch 5 a child's at either count.
    if in_prefix:
        refuse_non_finite_prefix(monkeypatch)
    train_set, test_set = datasets()
    train_set = poisoned(train_set, batches)
    model = finetune_model("freeze")
    with pytest.raises(NumericError) as alone:
        train_over(monkeypatch, 1, model, train_set, test_set, CFG)
    with pytest.raises(NumericError) as split:
        train_over(monkeypatch, processes, model, train_set, test_set, CFG)
    assert str(alone.value).startswith(f"epoch 1 batch {batches[0]}: ")
    assert str(split.value) == str(alone.value)


@pytest.mark.parametrize("where", ["prefix", "head"])
def test_interrupt_leaves_no_child(monkeypatch, where):
    # The children would sleep for a minute in their prefix; the caller is
    # interrupted in its own first prefix or its first head step, and train
    # must kill and join them rather than wait.
    caller = os.getpid()
    original = trainer_module.forward_steps

    def forward_steps(*args):
        if os.getpid() != caller:
            time.sleep(60)
        elif where == "prefix":
            raise KeyboardInterrupt
        return original(*args)

    def backward(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(trainer_module, "forward_steps", forward_steps)
    if where == "head":
        monkeypatch.setattr(trainer_module, "backward", backward)
    train_set, test_set = datasets()
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        train_over(monkeypatch, 3, finetune_model("freeze"), train_set, test_set, CFG)
    assert time.monotonic() - started < 30


def _train_in_pool_worker(case):
    train_set, test_set = datasets()
    trained, history = train(finetune_model(case), train_set, test_set, CFG, timer=lambda: 0.0)
    params = [(p.name, p.weights.tobytes(), p.bias.tobytes()) for p in trained.params]
    return trainer_module._eval_processes(10), params, history


def test_pool_worker_trains_in_one_process(monkeypatch):
    # The rule would split here (given the cores), but not in the daemonic
    # worker, which may not start children.
    monkeypatch.setattr(trainer_module, "_one_blas_thread", True)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        result = pool.apply_async(_train_in_pool_worker, ("freeze",)).get(timeout=120)
    processes, params, history = result
    assert processes == 1
    train_set, test_set = datasets()
    trained, alone = train_over(
        monkeypatch, 1, finetune_model("freeze"), train_set, test_set, CFG, timer=lambda: 0.0
    )
    assert params == [(p.name, p.weights.tobytes(), p.bias.tobytes()) for p in trained.params]
    assert history == alone


def test_every_layer_frozen_runs_the_whole_network_as_the_prefix(monkeypatch):
    model = finetune_model("freeze")
    model = replace(model, frozen=frozenset(model.param_names()))
    train_set, test_set = datasets()
    assert live_start(model) == len(list(model_module._steps(model.config)))
    trained, history = train_over(monkeypatch, 2, model, train_set, test_set, CFG)
    assert len(history) == CFG.epochs
    for a, b in zip(trained.params, model.params):
        assert (a.weights.tobytes(), a.bias.tobytes()) == (b.weights.tobytes(), b.bias.tobytes())
