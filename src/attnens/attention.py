"""Channel gating block.

Each channel of a feature map is squeezed to its global average, passed
through a two-layer bottleneck (reduce -> ReLU -> expand -> sigmoid), and the
resulting per-channel gate rescales the original map.  Both bottleneck stages
are 1x1 convolutions, stored as [C_out, C_in, 1, 1] kernels; on the squeezed
[N, C] statistics they are dense layers whose weights are transposed views
of those kernels.  The block is composed from the layer primitives (gap,
dense, relu, sigmoid and their backward passes), so the gradient audit of
each primitive covers the code the block runs.  The pair speaks the
primitives' convention too: ca_forward(x, reduce, expand) returns
(y, cache), and ca_backward returns the input gradient followed by the
weight and bias gradient of reduce and then of expand, so the model's tape
and the gradient audit call it as they call a conv.

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


def _as_dense(kernel: LayerParams) -> LayerParams:
    """A [C_out, C_in, 1, 1] kernel as [C_in, C_out] dense weights: a view, not a copy."""
    c_out, c_in = kernel.weights.shape[:2]
    return LayerParams(kernel.name, kernel.weights.reshape(c_out, c_in).T, kernel.bias)


def ca_forward(x: np.ndarray, reduce: LayerParams, expand: LayerParams):
    """Gate each channel of [N,C,H,W] by its squeezed bottleneck response.

    ``reduce`` is a [C/r, C, 1, 1] kernel and ``expand`` a [C, C/r, 1, 1]
    one; any other pair is refused with ShapeError.  Returns (y, cache): the
    rescaled map and the intermediates ca_backward needs; ``cache[4]`` holds
    the [N,C] gate values.
    """
    z, gap_cache = layers.gap_forward(x)
    c, rw, ew = x.shape[1], reduce.weights.shape, expand.weights.shape
    cr = rw[0] if rw else 0
    if rw != (cr, c, 1, 1) or ew != (c, cr, 1, 1):
        raise ShapeError(
            f"reduce {rw} and expand {ew} are not a 1x1 bottleneck on {c} channels"
        )
    u, reduce_cache = layers.dense_forward(z, _as_dense(reduce))
    hidden, relu_cache = layers.relu_forward(u)
    v, expand_cache = layers.dense_forward(hidden, _as_dense(expand))
    s, _ = layers.sigmoid_forward(v)
    y = x * s[:, :, None, None]
    return y, (x, gap_cache, reduce_cache, relu_cache, s, expand_cache)


def ca_backward(cache, grad_y: np.ndarray):
    """Gradients of ca_forward w.r.t. the input and both parameter layers.

    Returns (grad_x, reduce weight, reduce bias, expand weight, expand bias),
    the kernel gradients in the stored [C_out, C_in, 1, 1] shapes.
    """
    x, gap_cache, reduce_cache, relu_cache, s, expand_cache = cache
    if grad_y.shape != x.shape:
        raise ShapeError(f"grad shape {grad_y.shape} != input shape {x.shape}")
    grad_v = layers.sigmoid_backward(s, (grad_y * x).sum(axis=(2, 3)))
    grad_hidden, grad_we, grad_eb = layers.dense_backward(expand_cache, grad_v)
    grad_u = layers.relu_backward(relu_cache, grad_hidden)
    grad_z, grad_wr, grad_rb = layers.dense_backward(reduce_cache, grad_u)
    grad_x = grad_y * s[:, :, None, None] + layers.gap_backward(gap_cache, grad_z)
    return grad_x, grad_wr.T[:, :, None, None], grad_rb, grad_we.T[:, :, None, None], grad_eb
