"""Channel gating block.

Each channel of a feature map is squeezed to its global average, passed
through a two-layer bottleneck (reduce -> ReLU -> expand -> sigmoid), and the
resulting per-channel gate rescales the original map.  Both bottleneck stages
are 1x1 convolutions, stored as [C_out, C_in, 1, 1] kernels; on the squeezed
[N, C] statistics they are dense layers whose weights are transposed views
of those kernels.  The block is composed from the layer primitives (gap,
dense, relu, sigmoid and their backward passes), so the gradient audit of
each primitive covers the code the block runs.

A large positive expand bias saturates every gate at 1, turning the block
into an identity; this is the escape hatch used to compare gated and ungated
models that share all other parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from .errors import ConfigError, ShapeError
from .layers import LayerParams


@dataclass(frozen=True)
class AttentionConfig:
    """Bottleneck geometry: C channels squeezed to floor(C / reduction)."""

    channels: int
    reduction: int = 4

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.reduction < 1:
            raise ConfigError(f"reduction must be >= 1, got {self.reduction}")
        if self.channels // self.reduction < 1:
            raise ConfigError(
                f"reduction {self.reduction} collapses {self.channels} channels below 1"
            )

    @property
    def reduced(self) -> int:
        return self.channels // self.reduction


@dataclass(frozen=True)
class AttentionParams:
    """Parameter pair for the bottleneck: reduce (C->C/r) and expand (C/r->C)."""

    reduce: LayerParams
    expand: LayerParams

    def __post_init__(self):
        rw, ew = self.reduce.weights, self.expand.weights
        if rw.ndim != 4 or ew.ndim != 4 or rw.shape[2:] != (1, 1) or ew.shape[2:] != (1, 1):
            raise ShapeError("attention kernels must be 1x1 rank-4 arrays")
        if rw.shape[0] != ew.shape[1] or rw.shape[1] != ew.shape[0]:
            raise ShapeError(
                f"reduce {rw.shape} and expand {ew.shape} do not form a bottleneck"
            )


def _as_dense(kernel: LayerParams) -> LayerParams:
    """A [C_out, C_in, 1, 1] kernel as [C_in, C_out] dense weights: a view, not a copy."""
    c_out, c_in = kernel.weights.shape[:2]
    return LayerParams(kernel.name, kernel.weights.reshape(c_out, c_in).T, kernel.bias)


def ca_forward(x: np.ndarray, p: AttentionParams):
    """Gate each channel of [N,C,H,W] by its squeezed bottleneck response.

    Returns (y, s, cache): the rescaled map, the [N,C] gate values, and the
    intermediates needed by ca_backward; ``cache[4]`` is ``s``.
    """
    z, gap_cache = layers.gap_forward(x)
    u, reduce_cache = layers.dense_forward(z, _as_dense(p.reduce))
    hidden, relu_cache = layers.relu_forward(u)
    v, expand_cache = layers.dense_forward(hidden, _as_dense(p.expand))
    s, _ = layers.sigmoid_forward(v)
    y = x * s[:, :, None, None]
    return y, s, (x, gap_cache, reduce_cache, relu_cache, s, expand_cache)


def ca_backward(cache, grad_y: np.ndarray):
    """Gradients of ca_forward w.r.t. the input and both parameter pairs.

    Returns (grad_x, grads) where grads maps 'reduce'/'expand' to
    (grad_weights, grad_bias) in the stored kernel shapes.
    """
    x, gap_cache, reduce_cache, relu_cache, s, expand_cache = cache
    if grad_y.shape != x.shape:
        raise ShapeError(f"grad shape {grad_y.shape} != input shape {x.shape}")
    grad_v = layers.sigmoid_backward(s, (grad_y * x).sum(axis=(2, 3)))
    grad_hidden, grad_we, grad_eb = layers.dense_backward(expand_cache, grad_v)
    grad_u = layers.relu_backward(relu_cache, grad_hidden)
    grad_z, grad_wr, grad_rb = layers.dense_backward(reduce_cache, grad_u)
    grad_x = grad_y * s[:, :, None, None] + layers.gap_backward(gap_cache, grad_z)
    grads = {
        "reduce": (grad_wr.T[:, :, None, None], grad_rb),
        "expand": (grad_we.T[:, :, None, None], grad_eb),
    }
    return grad_x, grads
