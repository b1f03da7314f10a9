"""Finite-difference verification of every analytic gradient in the library.

``grad_check`` compares an analytic gradient against central differences of
a scalar-valued function, reporting the worst relative error
|analytic - numeric| / max(1, |analytic|, |numeric|).  Checks run in double
precision with h = 1e-5; test points keep a margin away from ReLU kinks and
pooling ties so the finite difference stays on one linear piece.

``audit_gradients`` packages one named check per layer kind and is what the
command-line audit runs.  Its ``corrupt`` hook deliberately scales one
analytic gradient so the failure path stays testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import layers
from .attention import AttentionConfig, AttentionParams, ca_backward, ca_forward
from .errors import ConfigError, PrecisionError
from .layers import ForwardMode, LayerParams
from .trainer import cross_entropy, softmax_cross_entropy_grad

TOLERANCE = 1e-4
DEFAULT_H = 1e-5
KINK_MARGIN = 1e-3

AUDIT_NAMES = (
    "conv2d",
    "dense",
    "relu",
    "sigmoid",
    "gap",
    "dropout",
    "maxpool",
    "channel_attention",
    "softmax_cross_entropy",
)


def numeric_gradient(f, x: np.ndarray, h: float = DEFAULT_H) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    if x.dtype != np.float64:
        raise PrecisionError("finite differences require double precision")
    if h <= 0.0:
        raise ConfigError(f"h must be positive, got {h}")
    grad = np.zeros_like(x)
    for i in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward.flat[i] += h
        backward.flat[i] -= h
        grad.flat[i] = (f(forward) - f(backward)) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst-coordinate relative error, floored at unit scale."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(f, x: np.ndarray, analytic, h: float = DEFAULT_H) -> float:
    """Max relative error between an analytic gradient and central differences.

    ``analytic`` is the gradient array itself or a callable evaluated at x.
    """
    analytic_grad = analytic(x) if callable(analytic) else analytic
    return relative_error(analytic_grad, numeric_gradient(f, x, h))


def _away_from_zero(x: np.ndarray, margin: float = KINK_MARGIN) -> np.ndarray:
    """Push entries with |x| < margin out to the margin, keeping their sign."""
    shifted = x.copy()
    small = np.abs(shifted) < margin
    sign = np.where(shifted[small] >= 0.0, 1.0, -1.0)
    shifted[small] = sign * margin
    return shifted


def _separated_windows(rng: np.random.Generator, shape, margin: float = KINK_MARGIN):
    """Random [N,C,H,W] values whose 2x2 pooling windows have no near-ties."""
    while True:
        x = rng.uniform(-1.0, 1.0, size=shape)
        n, c, h, w = shape
        windows = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        windows = windows.reshape(n, c, h // 2, w // 2, 4)
        ordered = np.sort(windows, axis=-1)
        if np.min(np.diff(ordered, axis=-1)) > 2.0 * margin:
            return x


@dataclass(frozen=True)
class AuditRow:
    name: str
    max_rel_err: float
    tolerance: float = TOLERANCE

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _check_pair(rng: np.random.Generator, forward, backward, *inputs) -> float:
    """Worst error over ``inputs`` of one forward/backward pair.

    ``forward(*inputs)`` returns (y, cache).  The scalar checked is y . r for
    a normal projection r drawn after the forward pass; ``backward(cache, r)``
    returns one gradient per input, bare when there is a single input.
    """
    out, cache = forward(*inputs)
    r = rng.normal(size=out.shape)
    grads = backward(cache, r)
    if len(inputs) == 1:
        grads = (grads,)

    def loss(i, v):
        return float((forward(*inputs[:i], v, *inputs[i + 1 :])[0] * r).sum())

    return max(grad_check(partial(loss, i), x, g) for i, (x, g) in enumerate(zip(inputs, grads)))


def _check_conv2d(rng: np.random.Generator) -> float:
    x = rng.normal(size=(2, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3)) * 0.5
    b = rng.normal(size=3) * 0.1

    def forward(xv, wv, bv):
        return layers.conv2d_forward(xv, LayerParams("conv", wv, bv))

    return _check_pair(rng, forward, layers.conv2d_backward, x, w, b)


def _check_dense(rng: np.random.Generator) -> float:
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(6, 3)) * 0.5
    b = rng.normal(size=3) * 0.1

    def forward(xv, wv, bv):
        return layers.dense_forward(xv, LayerParams("fc", wv, bv))

    return _check_pair(rng, forward, layers.dense_backward, x, w, b)


def _check_relu(rng: np.random.Generator) -> float:
    x = _away_from_zero(rng.uniform(-1.0, 1.0, size=(3, 7)))
    return _check_pair(rng, layers.relu_forward, layers.relu_backward, x)


def _check_sigmoid(rng: np.random.Generator) -> float:
    x = rng.uniform(-3.0, 3.0, size=(3, 7))
    return _check_pair(rng, layers.sigmoid_forward, layers.sigmoid_backward, x)


def _check_gap(rng: np.random.Generator) -> float:
    x = rng.normal(size=(2, 3, 4, 5))
    return _check_pair(rng, layers.gap_forward, layers.gap_backward, x)


def _check_dropout(rng: np.random.Generator) -> float:
    x = rng.normal(size=(3, 8))
    mode = ForwardMode.train(dropout_seed=1234)
    return _check_pair(
        rng, lambda xv: layers.dropout_forward(xv, 0.4, mode), layers.dropout_backward, x
    )


def _check_maxpool(rng: np.random.Generator) -> float:
    x = _separated_windows(rng, (2, 2, 4, 4))
    return _check_pair(rng, layers.maxpool2d_forward, layers.maxpool2d_backward, x)


def _check_channel_attention(rng: np.random.Generator) -> float:
    cfg = AttentionConfig(channels=4, reduction=2)
    x = rng.normal(size=(2, 4, 3, 3))
    rw = rng.normal(size=(cfg.reduced, 4, 1, 1)) * 0.7
    rb = rng.normal(size=cfg.reduced) * 0.1
    ew = rng.normal(size=(4, cfg.reduced, 1, 1)) * 0.7
    eb = rng.normal(size=4) * 0.1

    def forward(xv, rwv, rbv, ewv, ebv):
        p = AttentionParams(
            reduce=LayerParams("attn_reduce", rwv, rbv),
            expand=LayerParams("attn_expand", ewv, ebv),
        )
        y, _, cache = ca_forward(xv, p)
        return y, cache

    def backward(cache, r):
        gx, grads = ca_backward(cache, r)
        return (gx, *grads["reduce"], *grads["expand"])

    return _check_pair(rng, forward, backward, x, rw, rb, ew, eb)


def _check_softmax_cross_entropy(rng: np.random.Generator) -> float:
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)
    y = np.eye(5, dtype=np.float64)[labels]
    probs = layers.softmax_forward(logits)
    analytic = softmax_cross_entropy_grad(y, probs)
    return grad_check(
        lambda lv: cross_entropy(y, layers.softmax_forward(lv)), logits, analytic
    )


_CHECKS = {
    "conv2d": _check_conv2d,
    "dense": _check_dense,
    "relu": _check_relu,
    "sigmoid": _check_sigmoid,
    "gap": _check_gap,
    "dropout": _check_dropout,
    "maxpool": _check_maxpool,
    "channel_attention": _check_channel_attention,
    "softmax_cross_entropy": _check_softmax_cross_entropy,
}


def audit_gradients(seed: int = 0, corrupt: str | None = None) -> list[AuditRow]:
    """Run every layer-kind check in double precision; returns one row each.

    ``corrupt`` names a row whose measured error is inflated past tolerance,
    exercising the failure path end to end.
    """
    if corrupt is not None and corrupt not in _CHECKS:
        raise ConfigError(f"corrupt must be one of {sorted(_CHECKS)}, got {corrupt!r}")
    rows = []
    for name in AUDIT_NAMES:
        rng = np.random.default_rng(np.random.SeedSequence([seed, AUDIT_NAMES.index(name)]))
        err = _CHECKS[name](rng)
        if corrupt == name:
            err = max(err, 1.0) * 100.0
        rows.append(AuditRow(name=name, max_rel_err=err))
    return rows
