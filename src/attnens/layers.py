"""Layer primitives with hand-written forward and backward passes.

Each ``*_forward`` returns ``(output, cache)``; the matching ``*_backward``
consumes that cache plus the upstream gradient and returns exact gradients
of the forward map.  All functions are pure: dropout randomness comes from
an explicit seed, so identical inputs always produce identical outputs, and
no input array is ever mutated.

Convolution is cross-correlation (no kernel flip).  ``same`` padding is
symmetric, with any odd leftover pixel going to the bottom/right edge, and
preserves ``ceil(size / stride)``.  A conv cache holds the padded input (the
input itself for ``valid`` padding), not the kh*kw times larger im2col patch
matrix: conv2d_forward drops that matrix after its product, and
conv2d_backward rebuilds it from the padded input.  ``input_grad=False``
skips the input gradient; the model's bottom conv uses it, since nothing
reads the image's gradient.  Max pooling uses a fixed 2x2 window with
stride 2; ties resolve to the first element in row-major scan order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, NumericError, ShapeError


@dataclass(frozen=True)
class LayerParams:
    """Named weight/bias pair for one layer."""

    name: str
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.dtype != self.bias.dtype:
            raise ShapeError(
                f"layer {self.name!r}: weights are {self.weights.dtype} "
                f"but bias is {self.bias.dtype}"
            )


@dataclass(frozen=True)
class ForwardMode:
    """Execution mode for a forward pass.

    Train mode enables dropout and therefore requires a seed; eval mode is
    fully deterministic and seedless.
    """

    mode: str
    dropout_seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {self.mode!r}")
        if self.mode == "train":
            if self.dropout_seed is None or self.dropout_seed < 0:
                raise ConfigError("train mode requires a non-negative dropout_seed")
        elif self.dropout_seed is not None:
            raise ConfigError("eval mode takes no dropout_seed")

    @classmethod
    def train(cls, dropout_seed: int) -> "ForwardMode":
        return cls("train", dropout_seed)

    @classmethod
    def eval(cls) -> "ForwardMode":
        return cls("eval")

    @property
    def is_train(self) -> bool:
        return self.mode == "train"


def _same_padding(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """Return (pad_lo, pad_hi, out_size) for 'same' padding on one axis."""
    out = -(-size // stride)
    need = max((out - 1) * stride + kernel - size, 0)
    lo = need // 2
    return lo, need - lo, out


def _valid_out(size: int, kernel: int, stride: int) -> int:
    if kernel > size:
        raise ShapeError(f"kernel size {kernel} exceeds input extent {size}")
    return (size - kernel) // stride + 1


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Unfold padded [N,C,H,W] into a (C*kh*kw, N*ho*wo) patch matrix."""
    n, c, h, w = xp.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    sn, sc, sh, sw = xp.strides
    windows = as_strided(
        xp,
        shape=(n, c, kh, kw, ho, wo),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )
    return windows.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, n * ho * wo)


def _col2im(cols: np.ndarray, padded_shape, kh: int, kw: int, stride: int) -> np.ndarray:
    """Scatter-add a patch matrix back onto the padded [N,C,H,W] input grid.

    The sums build up in a channel-major (C, N, H, W) buffer, so each of the
    kh*kw slice-adds reads its rows of ``cols`` in place; the result is an
    NCHW view of that buffer.
    """
    n, c, h, w = padded_shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    patches = cols.reshape(c, kh, kw, n, ho, wo)
    out = np.zeros((c, n, h, w), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                patches[:, i, j]
            )
    return out.transpose(1, 0, 2, 3)


def conv2d_forward(
    x: np.ndarray, p: LayerParams, stride: int = 1, padding: str = "same"
):
    """2-D cross-correlation of [N,C_in,H,W] with [C_out,C_in,kh,kw] kernels."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got shape {x.shape}")
    if p.weights.ndim != 4:
        raise ShapeError(f"conv2d weights must be rank 4, got {p.weights.shape}")
    c_out, c_in, kh, kw = p.weights.shape
    if x.shape[1] != c_in:
        raise ShapeError(
            f"layer {p.name!r}: input has {x.shape[1]} channels, kernels expect {c_in}"
        )
    if p.bias.shape != (c_out,):
        raise ShapeError(f"layer {p.name!r}: bias shape {p.bias.shape} != ({c_out},)")
    if x.dtype != p.weights.dtype:
        raise ShapeError(f"dtype mismatch: input {x.dtype} vs weights {p.weights.dtype}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")

    n, _, h, w = x.shape
    if padding == "same":
        pt, pb, ho = _same_padding(h, kh, stride)
        pl, pr, wo = _same_padding(w, kw, stride)
        xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    elif padding == "valid":
        pt = pb = pl = pr = 0
        ho = _valid_out(h, kh, stride)
        wo = _valid_out(w, kw, stride)
        xp = x
    else:
        raise ConfigError(f"padding must be 'same' or 'valid', got {padding!r}")

    w_mat = p.weights.reshape(c_out, c_in * kh * kw)
    y = w_mat @ _im2col(xp, kh, kw, stride)
    y += p.bias[:, None]
    y = y.reshape(c_out, n, ho, wo).transpose(1, 0, 2, 3)
    cache = (xp, (pt, pb, pl, pr), stride, p, (ho, wo))
    return y, cache


def conv2d_backward(cache, grad_y: np.ndarray, input_grad: bool = True):
    """Gradients of conv2d_forward w.r.t. input, weights, and bias.

    The patch matrix is rebuilt from the cached padded input.  With
    ``input_grad=False`` the input gradient is not computed and comes back
    as None; the weight and bias gradients are the same either way.
    """
    xp, (pt, pb, pl, pr), stride, p, (ho, wo) = cache
    n, c_in, hp, wp = xp.shape
    c_out, _, kh, kw = p.weights.shape
    if grad_y.shape != (n, c_out, ho, wo):
        raise ShapeError(
            f"grad shape {grad_y.shape} != forward output shape {(n, c_out, ho, wo)}"
        )
    g = grad_y.transpose(1, 0, 2, 3).reshape(c_out, n * ho * wo)
    grad_b = g.sum(axis=1)
    grad_w = (g @ _im2col(xp, kh, kw, stride).T).reshape(p.weights.shape)
    if not input_grad:
        return None, grad_w, grad_b
    grad_cols = p.weights.reshape(c_out, -1).T @ g
    grad_xp = _col2im(grad_cols, xp.shape, kh, kw, stride)
    grad_x = grad_xp[:, :, pt : hp - pb, pl : wp - pr]
    return grad_x, grad_w, grad_b


def dense_forward(x: np.ndarray, p: LayerParams):
    """Affine map y = x @ W + b for [N,D] inputs and [D,U] weights."""
    if x.ndim != 2 or p.weights.ndim != 2:
        raise ShapeError(f"dense needs rank-2 input/weights, got {x.shape}, {p.weights.shape}")
    d, u = p.weights.shape
    if x.shape[1] != d:
        raise ShapeError(f"layer {p.name!r}: input width {x.shape[1]} != weight rows {d}")
    if p.bias.shape != (u,):
        raise ShapeError(f"layer {p.name!r}: bias shape {p.bias.shape} != ({u},)")
    y = x @ p.weights + p.bias
    return y, (x, p)


def dense_backward(cache, grad_y: np.ndarray):
    x, p = cache
    if grad_y.shape != (x.shape[0], p.weights.shape[1]):
        raise ShapeError(f"grad shape {grad_y.shape} does not match dense output")
    grad_x = grad_y @ p.weights.T
    grad_w = x.T @ grad_y
    grad_b = grad_y.sum(axis=0)
    return grad_x, grad_w, grad_b


def relu_forward(x: np.ndarray):
    """Elementwise max(x, 0); the cache is the output itself."""
    y = np.maximum(x, 0)
    return y, y


def relu_backward(cache, grad_y: np.ndarray):
    """Pass the gradient where the input was positive.

    ``y > 0`` holds exactly where ``x > 0`` does, for ``-0.0`` and NaN too,
    so caching the output loses nothing.  The subgradient at zero is zero.
    """
    y = cache
    return grad_y * (y > 0)


def sigmoid_forward(x: np.ndarray):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out, out


def sigmoid_backward(cache, grad_y: np.ndarray):
    s = cache
    return grad_y * s * (1.0 - s)


def softmax_forward(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax input must be rank 2, got shape {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax received non-finite logits")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def gap_forward(x: np.ndarray):
    """Global average pooling: [N,C,H,W] -> [N,C]."""
    if x.ndim != 4:
        raise ShapeError(f"gap input must be rank 4, got shape {x.shape}")
    return x.mean(axis=(2, 3)), x.shape


def gap_backward(cache, grad_y: np.ndarray):
    n, c, h, w = cache
    if grad_y.shape != (n, c):
        raise ShapeError(f"grad shape {grad_y.shape} != ({n}, {c})")
    spread = grad_y[:, :, None, None] / grad_y.dtype.type(h * w)
    return np.broadcast_to(spread, (n, c, h, w)).copy()


def dropout_forward(x: np.ndarray, rate: float, mode: ForwardMode):
    """Inverted dropout: survivors scaled by 1/(1-rate); eval mode is identity.

    The returned mask is multiplicative, so backward is just grad * mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if not mode.is_train:
        return x, np.ones_like(x)
    rng = np.random.default_rng(mode.dropout_seed)
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(x.dtype) * x.dtype.type(1.0 / (1.0 - rate))
    return x * mask, mask


def dropout_backward(mask: np.ndarray, grad_y: np.ndarray):
    if mask.shape != grad_y.shape:
        raise ShapeError(f"mask shape {mask.shape} != grad shape {grad_y.shape}")
    return grad_y * mask


def maxpool2d_forward(x: np.ndarray):
    """2x2 max pooling with stride 2 over [N,C,H,W]; H and W must be even.

    The output is the elementwise maximum of the four strided views
    ``x[:, :, i::2, j::2]``, written C-contiguous in NCHW order whatever the
    layout of ``x`` (a channel-major view from conv2d_forward included), so
    later reductions see the same memory order.  The cache is ``(x, y)``:
    references to the input and the output, no copies.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool input must be rank 4, got shape {x.shape}")
    h, w = x.shape[2:]
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even spatial dims >= 2, got {h}x{w}")
    y = np.maximum(
        np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]),
        np.maximum(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]),
        order="C",
    )
    return y, (x, y)


def maxpool2d_backward(cache, grad_y: np.ndarray):
    """Route each window's gradient to the first input equal to its maximum.

    Offsets are tested in row-major order (0,0), (0,1), (1,0), (1,1), so a
    tie goes to the first element.  Every other input gets ``+0.0``.  A window
    containing NaN has a NaN maximum that equals no input, so it routes no
    gradient; softmax_forward raises NumericError before training could
    backpropagate through one.  The gradient takes the memory layout of
    ``x``, so a conv's channel-major output gets a channel-major gradient.
    """
    x, y = cache
    if grad_y.shape != y.shape:
        raise ShapeError(f"grad shape {grad_y.shape} != {y.shape}")
    grad_x = np.empty_like(x, dtype=grad_y.dtype)
    zero = grad_y.dtype.type(0)
    free = np.ones(y.shape, dtype=bool)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = x[:, :, i::2, j::2] == y
        hit &= free
        free ^= hit  # hit lies inside free, so this clears the windows it took
        grad_x[:, :, i::2, j::2] = np.where(hit, grad_y, zero)
    return grad_x
