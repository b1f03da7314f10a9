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

import numpy as np

from . import _one_blas_thread
from .atomic import atomic_write
from .data import Dataset, float_image
from .ensemble import PredictionMatrix
from .errors import ConfigError, NumericError, ShapeError
from .imageops import AugmentConfig, augment, resize_bilinear
from .layers import ForwardMode, LayerParams
from .model import Model, backward, forward_cached
from .seeding import derive_seed

HISTORY_COLUMNS = ("epoch", "train_loss", "train_acc", "test_acc", "seconds")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters plus the augmentation policy."""

    batch_size: int = 16
    epochs: int = 20
    learning_rate: float = 1e-4
    momentum: float = 0.9
    shuffle_seed: int = 0
    loss_clamp_eps: float = 1e-7
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
        if not 0.0 < self.loss_clamp_eps < 1.0:
            raise ConfigError(f"loss_clamp_eps must lie in (0, 1), got {self.loss_clamp_eps}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    seconds: float


def cross_entropy(y: np.ndarray, y_hat: np.ndarray, eps: float = 1e-7) -> float:
    """Mean negative log-likelihood of one-hot targets.

    Predicted probabilities are clamped to [eps, 1] before the log, so a
    confidently wrong model yields a large but finite loss.
    """
    if y.ndim != 2 or y.shape != y_hat.shape:
        raise ShapeError(f"targets {y.shape} and predictions {y_hat.shape} must match")
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    clamped = np.clip(y_hat, eps, 1.0)
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


def _resized_images(samples, input_size) -> list[np.ndarray]:
    """Each sample's image at the model's input size.

    An image already at that size is returned as stored (uint8 or float); a
    resized one is float32, scaled by ``float_image`` before resampling.
    """
    h, w, c = input_size
    images = []
    for s in samples:
        if s.image.shape[0] != c:
            raise ShapeError(
                f"sample {s.id!r} has {s.image.shape[0]} channels, model expects {c}"
            )
        if s.image.shape[1:] == (h, w):
            images.append(s.image)
        else:
            images.append(resize_bilinear(float_image(s.image), h, w))
    return images


def _check_class_space(model: Model, dataset: Dataset, role: str) -> None:
    if dataset.num_classes != model.config.num_classes:
        raise ConfigError(
            f"{role} set has {dataset.num_classes} classes, "
            f"model expects {model.config.num_classes}"
        )


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
    before the first step, since every epoch ends by evaluating it.

    Images at the input size stay as stored, and a uint8 one is scaled to
    float32 just before it is augmented; a mismatched split is resized once,
    up front, because every epoch revisits it.
    """
    if train_set.class_names != test_set.class_names:
        raise ConfigError("train and test sets disagree on class names")
    _check_class_space(model, train_set, "train")
    if len(train_set) == 0:
        raise ConfigError("training set is empty")
    if cfg.epochs == 0:
        return model, []
    if len(test_set) == 0:
        raise ConfigError("test set is empty")

    images = _resized_images(train_set.samples, model.config.input_size)
    labels = train_set.labels()
    n = len(train_set)
    k = model.config.num_classes
    onehot = np.eye(k, dtype=np.float32)

    velocity = {key: np.zeros_like(arr) for key, arr in _live_arrays(model).items()}

    history = []
    current = model
    for epoch in range(1, cfg.epochs + 1):
        started = timer()
        order = epoch_permutation(cfg.shuffle_seed, epoch, n)
        loss_sum = 0.0
        hits = 0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
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
            targets = onehot[labels[idx]]
            mode = ForwardMode.train(derive_seed(cfg.shuffle_seed, "dropout", epoch, batch_no))
            try:
                probs, tape = forward_cached(current, batch, mode)
                loss = cross_entropy(targets, probs, cfg.loss_clamp_eps)
                grads = backward(current, tape, softmax_cross_entropy_grad(targets, probs))
                current, velocity = _sgd_update(current, grads, velocity, cfg)
            except NumericError as e:
                raise NumericError(f"epoch {epoch} batch {batch_no}: {e}") from e
            loss_sum += loss * len(idx)
            hits += int((probs.argmax(axis=1) == labels[idx]).sum())
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


def evaluate(
    model: Model,
    dataset: Dataset,
    batch_size: int = 16,
    model_name: str = "model",
) -> tuple[float, PredictionMatrix]:
    """Eval-mode accuracy plus the full prediction matrix, in dataset order.

    The forward pass keeps no tape: each step's cache is dropped as soon as
    the step returns.  The probabilities are the taped pass's bits.  The
    default batch of 16 bounds the working set: at a ``desk_config`` 48x48
    input the bottom conv's patch matrix is 4 MB, against 16 MB at a batch
    of 64.  Whether an image's probability bits depend on the batch size is
    up to the BLAS kernels (README, "Memory").

    The batches may be split into contiguous shares over the idle cores
    (``_eval_processes`` has the rule): the caller runs the first share and
    a forked child runs each other one.  A batch keeps its images and its
    kernels wherever it runs, so the probabilities keep their bits, and the
    first batch to fail raises its own error in the caller, because a child
    sends back only the batches before its first failure and the caller runs
    the rest of that share itself.
    """
    _check_class_space(model, dataset, "eval")
    if len(dataset) == 0:
        raise ConfigError("evaluation set is empty")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    # Each batch is scaled and resized just before its forward pass; train
    # resizes up front because it revisits its images every epoch.
    batches = [
        dataset.samples[start : start + batch_size]
        for start in range(0, len(dataset), batch_size)
    ]
    processes = _eval_processes(len(batches))
    if processes == 1:
        chunks = [_batch_probs(model, samples) for samples in batches]
    else:
        chunks = _split_probs(model, batches, processes)
    probs = np.concatenate(chunks, axis=0)
    labels = dataset.labels()
    acc = float((probs.argmax(axis=1) == labels).mean())
    matrix = PredictionMatrix(model_name, dataset.sample_ids(), probs.astype(np.float64))
    return acc, matrix


def _batch_probs(model: Model, samples) -> np.ndarray:
    """Eval-mode probabilities of one batch of samples."""
    images = _resized_images(samples, model.config.input_size)
    batch = np.stack([float_image(image) for image in images]).astype(np.float32, copy=False)
    probs, _ = forward_cached(model, batch, ForwardMode.eval(), False)
    return probs


def _eval_processes(batches: int) -> int:
    """How many processes ``evaluate`` splits ``batches`` batches over.

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


def _split_probs(model: Model, batches: list, processes: int) -> list[np.ndarray]:
    """Each batch's probabilities, the batches split over ``processes`` processes.

    The shares are contiguous and differ by at most one batch; the caller
    runs the first (the smallest) while forked children run the others.
    Every child is joined on every path: on an error or an interrupt it is
    killed first, so none is left running.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    bounds = [len(batches) * i // processes for i in range(processes + 1)]
    shares = [batches[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            # The fork Popen flushes stdout and stderr before forking, so no
            # buffered line is printed twice.
            child = context.Process(target=_send_share_probs, args=(model, share, sender))
            child.start()
            children.append((child, receiver))
            sender.close()
        chunks = [_batch_probs(model, samples) for samples in shares[0]]
        for (_, receiver), share in zip(children, shares[1:]):
            try:
                done = receiver.recv()
            except EOFError:
                done = []
            chunks += done
            # A batch the child did not send failed there (or the child died):
            # running it here raises its error, or recovers its probabilities.
            chunks += [_batch_probs(model, samples) for samples in share[len(done) :]]
        for child, _ in children:
            child.join()
        return chunks
    finally:
        # A child that has exited is joined already, and kill skips it.  The
        # pipe closes last, so no child still sending meets a closed pipe.
        for child, receiver in children:
            child.kill()
            child.join()
            receiver.close()


def _send_share_probs(model: Model, share: list, sender) -> None:
    """A child's work: send the probabilities of its batches up to the first failure."""
    import signal

    # On Ctrl-C the caller stops waiting and kills its children.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    done = []
    try:
        for samples in share:
            done.append(_batch_probs(model, samples))
    except Exception:
        pass  # the caller runs the failed batch itself and raises its error
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
