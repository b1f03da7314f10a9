"""Training loop: cross-entropy loss, SGD with classical momentum, history.

Training is a pure function of (model, datasets, config): shuffling, dropout,
and augmentation are all seeded from the config, so two runs produce
bit-identical parameters.  Per-epoch wall time is recorded in the history as
a measurement; it is the one field that naturally varies between runs.

The loss gradient with respect to the logits is computed in closed form as
(probs - onehot) / batch_size, folding softmax and cross-entropy together.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _one_blas_thread
from .atomic import atomic_write
from .data import Dataset, float_image
from .ensemble import PredictionMatrix
from .errors import ConfigError, NumericError, ShapeError
from .imageops import AugmentConfig, augment, resize_bilinear
from .layers import ForwardMode, LayerParams
from .model import Model, backward, forward_cached, forward_steps, live_start
from .seeding import derive_seed

HISTORY_COLUMNS = ("epoch", "train_loss", "train_acc", "test_acc", "seconds")
LOSS_CLAMP_EPS = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters plus the augmentation policy."""

    batch_size: int = 16
    epochs: int = 20
    learning_rate: float = 1e-4
    momentum: float = 0.9
    shuffle_seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.shuffle_seed < 0:
            raise ConfigError(f"shuffle_seed must be non-negative, got {self.shuffle_seed}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    seconds: float


def cross_entropy(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean negative log-likelihood of one-hot targets.

    Predicted probabilities are clamped to [LOSS_CLAMP_EPS, 1] before the log,
    so a confidently wrong model yields a large but finite loss.  Only the
    reported loss sees the clamp: training's gradient is closed form.
    """
    if y.ndim != 2 or y.shape != y_hat.shape:
        raise ShapeError(f"targets {y.shape} and predictions {y_hat.shape} must match")
    clamped = np.clip(y_hat, LOSS_CLAMP_EPS, 1.0)
    return float(-(y * np.log(clamped)).sum() / y.shape[0])


def softmax_cross_entropy_grad(y: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient of mean cross-entropy w.r.t. the logits feeding the softmax."""
    if y.shape != probs.shape:
        raise ShapeError(f"targets {y.shape} and probs {probs.shape} must match")
    return (probs - y) / probs.dtype.type(y.shape[0])


def sgd_momentum_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    cfg: TrainConfig,
):
    """One momentum update: v' = m*v - lr*g; w' = w + v'.

    All three dicts must share keys, else ShapeError: the trainer passes the
    live (non-frozen) parameters and ``model.backward``'s result, which holds
    the live gradients only.  Returns (new_params, new_velocity) without
    mutating inputs.
    """
    if set(params) != set(grads) or set(params) != set(velocity):
        raise ShapeError("params, grads, and velocity must share the same keys")
    new_params, new_velocity = {}, {}
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ShapeError(f"{name}: grad shape {g.shape} != param shape {w.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
        v = cfg.momentum * velocity[name] - cfg.learning_rate * g
        new_velocity[name] = v
        new_params[name] = w + v
    return new_params, new_velocity


def epoch_permutation(shuffle_seed: int, epoch: int, n: int) -> np.ndarray:
    """Sample visit order for one epoch; depends only on (seed, epoch, n)."""
    rng = np.random.default_rng(derive_seed(shuffle_seed, "shuffle", epoch))
    return rng.permutation(n)


def _check_dataset(model: Model, dataset: Dataset, role: str) -> None:
    """Refuse a set whose class count or image channel count is not the model's."""
    if dataset.num_classes != model.config.num_classes:
        raise ConfigError(
            f"{role} set has {dataset.num_classes} classes, "
            f"model expects {model.config.num_classes}"
        )
    c = model.config.input_size[2]
    for s in dataset.samples:
        if s.image.shape[0] != c:
            raise ShapeError(
                f"sample {s.id!r} has {s.image.shape[0]} channels, model expects {c}"
            )


def _batch(model: Model, samples, transform=None) -> np.ndarray:
    """The float32 input batch of ``samples``: each image scaled by ``float_image``,
    resized to the input size when it differs, then passed through
    ``transform(sample, image)`` if given (training's augmentation)."""
    h, w, _ = model.config.input_size
    images = []
    for s in samples:
        image = float_image(s.image)
        if image.shape[1:] != (h, w):
            image = resize_bilinear(image, h, w)
        if transform is not None:
            image = transform(s, image)
        images.append(image)
    return np.stack(images).astype(np.float32, copy=False)


def _live_arrays(model: Model) -> dict[str, np.ndarray]:
    """'<layer>.weight'/'<layer>.bias' -> array for every layer not frozen."""
    arrays = {}
    for p in model.params:
        if p.name not in model.frozen:
            arrays[f"{p.name}.weight"], arrays[f"{p.name}.bias"] = p.weights, p.bias
    return arrays


def _sgd_update(model: Model, grads, velocity, cfg: TrainConfig) -> tuple[Model, dict]:
    """Apply one momentum step to the non-frozen layers; returns (model, velocity)."""
    stepped, velocity = sgd_momentum_step(_live_arrays(model), grads, velocity, cfg)
    params = tuple(
        p if p.name in model.frozen
        else LayerParams(p.name, stepped[f"{p.name}.weight"], stepped[f"{p.name}.bias"])
        for p in model.params
    )
    return model.with_params(params), velocity


def train(
    model: Model,
    train_set: Dataset,
    test_set: Dataset,
    cfg: TrainConfig,
    timer=time.perf_counter,
) -> tuple[Model, list[EpochStats]]:
    """Train and return (final model, per-epoch history).

    Each epoch shuffles by (shuffle_seed, epoch), augments every sample with
    a seed derived from (shuffle_seed, epoch, sample_id), and updates all
    non-frozen parameters after every batch.  epochs=0 returns the model
    untouched with an empty history; otherwise an empty test set is refused
    before the first step, since every epoch ends by evaluating it.  Both
    splits are checked against the model's class and channel counts first.

    Images stay as stored; each batch is built as it runs (``_batch``):
    scaled, resized when its size differs from the input, and augmented.

    When frozen steps lie below the lowest live one (``live_start``), each
    batch's frozen prefix (building the batch, and those steps run with
    no tape and the batch's own dropout seed) depends only on the epoch's
    batch order, the augment seeds and the frozen weights, all known when
    the epoch starts.  So the batches' prefixes are split into contiguous
    shares over the idle cores by ``_eval_processes``'s rule, as
    ``evaluate``'s batches are: the caller computes the first share and a
    forked child each other one, which sends back only the prefix outputs
    (64 floats per image under a frozen ``desk_config`` backbone).  The
    caller runs the head batch by batch: a taped forward from the lowest
    live step, the loss, ``backward`` and the SGD step.  Every batch keeps
    its bits wherever its prefix ran.  With nothing frozen the prefix is
    building the batch alone and runs in the caller, batch by batch ahead
    of each step, as with one process.
    """
    if train_set.class_names != test_set.class_names:
        raise ConfigError("train and test sets disagree on class names")
    _check_dataset(model, train_set, "train")
    _check_dataset(model, test_set, "test")
    if len(train_set) == 0:
        raise ConfigError("training set is empty")
    if cfg.epochs == 0:
        return model, []
    if len(test_set) == 0:
        raise ConfigError("test set is empty")

    labels = train_set.labels()
    n = len(train_set)
    k = model.config.num_classes
    onehot = np.eye(k, dtype=np.float32)
    split = live_start(model)

    velocity = {key: np.zeros_like(arr) for key, arr in _live_arrays(model).items()}

    history = []
    current = model
    for epoch in range(1, cfg.epochs + 1):
        started = timer()
        order = epoch_permutation(cfg.shuffle_seed, epoch, n)
        batches = [order[start : start + cfg.batch_size] for start in range(0, n, cfg.batch_size)]
        prefix = partial(_frozen_prefix, current, train_set.samples, cfg, epoch, split)
        processes = _eval_processes(len(batches)) if split else 1
        inputs = _split_map(prefix, list(enumerate(batches)), processes)
        loss_sum = 0.0
        hits = 0
        try:
            for batch_no, idx in enumerate(batches):
                targets = onehot[labels[idx]]
                mode = _dropout_mode(cfg, epoch, batch_no)
                try:
                    x = next(inputs)
                    probs, tape = forward_cached(current, x, mode, True, split)
                    loss = cross_entropy(targets, probs)
                    grads = backward(current, tape, softmax_cross_entropy_grad(targets, probs))
                    current, velocity = _sgd_update(current, grads, velocity, cfg)
                except NumericError as e:
                    raise NumericError(f"epoch {epoch} batch {batch_no}: {e}") from e
                loss_sum += loss * len(idx)
                hits += int((probs.argmax(axis=1) == labels[idx]).sum())
        finally:
            # Joins any child still running when a step fails or is interrupted.
            inputs.close()
        test_acc, _ = evaluate(current, test_set)
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=loss_sum / n,
                train_acc=hits / n,
                test_acc=test_acc,
                seconds=timer() - started,
            )
        )
    return current, history


def _dropout_mode(cfg: TrainConfig, epoch: int, batch_no: int) -> ForwardMode:
    """The train mode of one batch, whose seed feeds every dropout step."""
    return ForwardMode.train(derive_seed(cfg.shuffle_seed, "dropout", epoch, batch_no))


def _frozen_prefix(model: Model, samples, cfg: TrainConfig, epoch: int, split: int, item):
    """The input of step ``split`` for one (batch number, sample indices) item.

    The batch is built with each image augmented by its own seed, then the
    steps below ``split`` (none when it is 0) run with no tape, in the
    batch's own train mode.
    """
    batch_no, idx = item

    def seeded(s, image):
        return augment(image, cfg.augment, derive_seed(cfg.shuffle_seed, epoch, s.id))

    batch = _batch(model, [samples[i] for i in idx], seeded)
    x, _ = forward_steps(model, batch, _dropout_mode(cfg, epoch, batch_no), 0, split, False)
    return x


def evaluate(
    model: Model,
    dataset: Dataset,
    batch_size: int = 16,
    model_name: str = "model",
) -> tuple[float, PredictionMatrix]:
    """Eval-mode accuracy plus the full prediction matrix, in dataset order.

    The set's class and channel counts are checked before any batch runs,
    and each batch is scaled and resized as it runs (``_batch``).

    The forward pass keeps no tape: each step's cache is dropped as soon as
    the step returns.  The probabilities are the taped pass's bits.  The
    default batch of 16 bounds the working set: at a ``desk_config`` 48x48
    input the bottom conv's patch matrix is 4 MB, against 16 MB at a batch
    of 64.  Whether an image's probability bits depend on the batch size is
    up to the BLAS kernels (README, "Memory").

    The batches may be split into contiguous shares over the idle cores
    (``_eval_processes`` has the rule, ``_split_map`` the fork): the caller
    runs the first share and a forked child runs each other one.  A batch
    keeps its images and its kernels wherever it runs, so the probabilities
    keep their bits, and the first batch to fail raises its own error in the
    caller, because a child sends back only the batches before its first
    failure and the caller runs the rest of that share itself.
    """
    _check_dataset(model, dataset, "eval")
    if len(dataset) == 0:
        raise ConfigError("evaluation set is empty")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    batches = [
        dataset.samples[start : start + batch_size]
        for start in range(0, len(dataset), batch_size)
    ]
    chunks = _split_map(partial(_batch_probs, model), batches, _eval_processes(len(batches)))
    probs = np.concatenate(list(chunks), axis=0)
    labels = dataset.labels()
    acc = float((probs.argmax(axis=1) == labels).mean())
    matrix = PredictionMatrix(model_name, dataset.sample_ids(), probs.astype(np.float64))
    return acc, matrix


def _batch_probs(model: Model, samples) -> np.ndarray:
    """Eval-mode probabilities of one batch of samples."""
    probs, _ = forward_cached(model, _batch(model, samples), ForwardMode.eval(), False)
    return probs


def _eval_processes(batches: int) -> int:
    """How many processes ``evaluate``, or a ``train`` epoch's frozen prefix,
    splits ``batches`` batches over.

    ``min(batches, CPUs in the affinity mask)`` when the package pinned BLAS
    to one thread (``ATTN_ENS_THREADS=1`` before numpy loaded; with more
    BLAS threads per process the split would oversubscribe the cores), the
    ``fork`` start method exists, the caller runs a single Python thread
    (forking a threaded process can copy a held lock) and is not a daemonic
    ``multiprocessing`` worker (which may not start children); otherwise 1.
    """
    if not _one_blas_thread or not hasattr(os, "sched_getaffinity"):
        return 1
    processes = min(batches, len(os.sched_getaffinity(0)))
    if processes == 1:
        return 1
    import multiprocessing
    import threading

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
        or multiprocessing.current_process().daemon
    ):
        return 1
    return processes


def _split_map(fn, items: list, processes: int):
    """Yield ``fn(item)`` for each item in order, the items split over ``processes`` processes.

    The shares are contiguous and differ by at most one item; the caller
    runs the first (the smallest), one item per ``next``, while a child
    forked at the first ``next`` runs each other share and sends back its
    results up to its first failure.  An item the child did not send failed
    there (or the child died): the caller runs it again, which raises its
    error or recovers its result, so the first failing item raises its own
    error in the caller.  With one process no fork context is asked for, so
    platforms without ``fork`` run this too.  Every child is joined on every
    path, killed first on an error or an interrupt, and on ``close()``, so a
    caller that stops early closes the generator.
    """
    if processes > 1:
        import multiprocessing

        context = multiprocessing.get_context("fork")
    bounds = [len(items) * i // processes for i in range(processes + 1)]
    shares = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            # The fork Popen flushes stdout and stderr before forking, so no
            # buffered line is printed twice.
            child = context.Process(target=_send_share, args=(fn, share, sender))
            child.start()
            children.append((child, receiver))
            sender.close()
        for item in shares[0]:
            yield fn(item)
        for (_, receiver), share in zip(children, shares[1:]):
            try:
                done = receiver.recv()
            except EOFError:
                done = []
            yield from done
            for item in share[len(done) :]:
                yield fn(item)
        for child, _ in children:
            child.join()
    finally:
        # A child that has exited is joined already, and kill skips it.  The
        # pipe closes last, so no child still sending meets a closed pipe.
        for child, receiver in children:
            child.kill()
            child.join()
            receiver.close()


def _send_share(fn, share: list, sender) -> None:
    """A child's work: send ``fn``'s results for its items up to the first failure."""
    import signal

    # On Ctrl-C the caller stops waiting and kills its children.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    done = []
    try:
        for item in share:
            done.append(fn(item))
    except Exception:
        pass  # the caller runs the failed item itself and raises its error
    sender.send(done)
    sender.close()


def write_history_csv(history: list[EpochStats], path) -> None:
    """Write per-epoch stats; floats use shortest round-trip formatting."""
    with atomic_write(path, "w", newline="") as f:
        f.write(",".join(HISTORY_COLUMNS) + "\n")
        for s in history:
            f.write(
                f"{s.epoch},{float(s.train_loss)!r},{float(s.train_acc)!r},"
                f"{float(s.test_acc)!r},{float(s.seconds)!r}\n"
            )


def history_summary(history: list[EpochStats]) -> dict:
    """Compact, run-independent summary for embedding in checkpoints."""
    if not history:
        return {"epochs": 0}
    last = history[-1]
    return {
        "epochs": len(history),
        "final_train_loss": float(last.train_loss),
        "final_train_acc": float(last.train_acc),
        "final_test_acc": float(last.test_acc),
    }
