"""Training loop: cross-entropy loss, SGD with classical momentum, history.

Training is a pure function of (model, datasets, config): shuffling, dropout,
and augmentation are all seeded from the config, so two runs produce
bit-identical parameters.  Per-epoch wall time is recorded in the history as
a measurement; it is the one field that naturally varies between runs.

The loss gradient with respect to the logits is computed in closed form as
(probs - onehot) / batch_size, folding softmax and cross-entropy together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .ensemble import PredictionMatrix
from .errors import ConfigError, NumericError, ShapeError, decode_config, encode_config
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

    All three dicts must share keys; frozen parameters are excluded by the
    caller.  Returns (new_params, new_velocity) without mutating inputs.
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


def _resized_images(dataset: Dataset, input_size) -> list[np.ndarray]:
    h, w, c = input_size
    images = []
    for s in dataset.samples:
        if s.image.shape[0] != c:
            raise ShapeError(
                f"sample {s.id!r} has {s.image.shape[0]} channels, model expects {c}"
            )
        if s.image.shape[1:] == (h, w):
            images.append(s.image)
        else:
            images.append(resize_bilinear(s.image, h, w))
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
    live = _live_arrays(model)
    stepped, velocity = sgd_momentum_step(live, {k: grads[k] for k in live}, velocity, cfg)
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
    untouched with an empty history.
    """
    if train_set.class_names != test_set.class_names:
        raise ConfigError("train and test sets disagree on class names")
    _check_class_space(model, train_set, "train")
    if len(train_set) == 0:
        raise ConfigError("training set is empty")
    if cfg.epochs == 0:
        return model, []

    images = _resized_images(train_set, model.config.input_size)
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
                        images[i],
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
    batch_size: int = 64,
    model_name: str = "model",
) -> tuple[float, PredictionMatrix]:
    """Eval-mode accuracy plus the full prediction matrix, in dataset order."""
    _check_class_space(model, dataset, "eval")
    if len(dataset) == 0:
        raise ConfigError("evaluation set is empty")
    images = _resized_images(dataset, model.config.input_size)
    chunks = []
    for start in range(0, len(dataset), batch_size):
        batch = np.stack(images[start : start + batch_size]).astype(np.float32, copy=False)
        probs, _ = forward_cached(model, batch, ForwardMode.eval())
        chunks.append(probs)
    probs = np.concatenate(chunks, axis=0)
    labels = dataset.labels()
    acc = float((probs.argmax(axis=1) == labels).mean())
    matrix = PredictionMatrix(model_name, dataset.sample_ids(), probs.astype(np.float64))
    return acc, matrix


def write_history_csv(history: list[EpochStats], path) -> None:
    """Write per-epoch stats; floats use shortest round-trip formatting."""
    with open(path, "w", newline="") as f:
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


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return encode_config(cfg)


def train_config_from_dict(d) -> TrainConfig:
    return decode_config(TrainConfig, d, "train config")
