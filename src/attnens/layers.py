"""Layer primitives with hand-written forward and backward passes.

Each ``*_forward`` returns ``(output, cache)``; the matching ``*_backward``
consumes that cache plus the upstream gradient and returns exact gradients
of the forward map.  All functions are pure: dropout randomness comes from
an explicit seed, so identical inputs always produce identical outputs, and
no input array is ever mutated.

Convolution is cross-correlation (no kernel flip) at stride 1 with ``same``
padding, the one conv the network runs: the output keeps the input's size,
and an odd leftover pixel of padding goes to the bottom/right edge.  The
im2col patch matrix is gathered straight from the unpadded input with one
long slice copy per kernel offset (_im2col_same), and the input gradient
is scattered back with one long slice-add per offset (_col2im_same); both
take their offsets from _same_shifts.  A conv cache holds a reference to
the input itself, not the kh*kw times larger patch matrix: conv2d_forward
drops that matrix after its product, and conv2d_backward rebuilds it.  The
output and the weight and bias gradients keep every bit of the padded-grid
form (pad the input, gather, multiply, scatter-add onto the padded grid,
crop); the input gradient keeps every finite value, infinity, signed zero
and NaN position of it, while the sign and payload of a NaN there are
unspecified.  No NaN gradient reaches a model's parameters: softmax_forward
raises on non-finite logits before backward runs, and the SGD step on a
non-finite gradient before any update.  ``input_grad=False`` makes
conv2d_backward and dense_backward skip the input gradient; the model's
backward passes it to the lowest step that holds a trainable layer, since
nothing reads the gradient below that step.
Max pooling uses a fixed 2x2 window with stride 2.  The forward pass takes
the maximum of each pair of rows first, reading whole rows, then of each
pair of columns; that order shows only in the sign of a maximum reached by
both ``+0.0`` and ``-0.0``.  In the backward pass ties resolve to the first
element in row-major scan order, and the gradient's bit patterns are copied
as unsigned integers, so a routed ``-0.0`` or NaN keeps its bits and every
other input gets ``+0.0``.
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


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Unfold padded [N,C,H,W] into a (C*kh*kw, N*ho*wo) patch matrix."""
    n, c, h, w = xp.shape
    ho, wo = h - kh + 1, w - kw + 1
    sn, sc, sh, sw = xp.strides
    windows = as_strided(xp, shape=(n, c, kh, kw, ho, wo), strides=(sn, sc, sh, sw, sh, sw))
    return windows.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, n * ho * wo)


def _same_shifts(h: int, w: int, kh: int, kw: int):
    """The kernel offsets of a stride-1 ``same`` conv as shifts of a flat plane.

    The output has the input's size, so patch ``(i, j)`` meets the flattened
    H*W plane at the constant offset ``off = (i - pt) * W + (j - pl)``:
    patch position ``q`` pairs with plane position ``q + off``.  Positions
    ``lo:hi`` of the patch fall inside the plane; the rest lie in the top or
    bottom padding.  In a kernel column left (right) of the centre, the
    first (last) columns of each patch row have their true partner in the
    left (right) padding, but ``q + off`` wraps them onto a neighbouring
    row; ``wrap`` is the slice of those columns, or None in the centre
    column.  Yields ``(i, j, off, lo, hi, wrap)`` in row-major kernel order;
    _im2col_same gathers and _col2im_same scatters with exactly these
    numbers.
    """
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    hw = h * w
    for i in range(kh):
        for j in range(kw):
            off = (i - pt) * w + (j - pl)
            lo, hi = min(max(0, -off), hw), max(0, min(hw, hw - off))
            if j < pl:
                wrap = slice(0, min(pl - j, w))
            elif j > pl:
                wrap = slice(max(w + pl - j, 0), w)
            else:
                wrap = None
            yield i, j, off, lo, hi, wrap


# _im2col_same gathers the channels in groups whose input planes total at
# most this many bytes (at least one channel), so that a group's planes stay
# in the core's cache while its kh*kw row blocks are written: at evaluate()'s
# batch of 16, 3 channels at a time at 48x48, 14 at 24x24 and 56 at 12x12.
# Any group size gives the same bits.
_GATHER_BYTES = 1 << 19


def _im2col_same(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The ``same``-padded patch matrix of [N,C,H,W], built without padding ``x``.

    Returns the (C*kh*kw, N*H*W) matrix that ``_im2col(np.pad(x, ...))``
    returns, with the same bits, shape and strides.  Row block ``(c, i, j)``
    is one long slice copy from the (C, N, H*W) reshape of ``x`` at offset
    ``off`` (_same_shifts); it reads whole rows when ``x`` has contiguous
    H*W planes, as NCHW and channel-major batches do, and every c-th value
    of a channels-last batch.  Its head, tail and wrapped columns, whose
    source is padding, are set to ``+0.0`` as np.pad would.  The blocks are
    written a group of channels at a time (_GATHER_BYTES).  When a kernel
    or input side is 1, the padded gather can return a strided view of the
    padded copy instead of a C-contiguous matrix, and matmul then adds in a
    different order; for those shapes, which the configs never run, the
    matrix still comes from the padded gather so that every bit is kept.
    """
    n, c, h, w = x.shape
    if min(kh, kw, h, w) == 1:
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl)))
        return _im2col(xp, kh, kw)
    cols = np.empty((c, kh, kw, n, h * w), dtype=x.dtype)
    src = x.transpose(1, 0, 2, 3).reshape(c, n, h * w)
    shifts = list(_same_shifts(h, w, kh, kw))
    group = max(1, _GATHER_BYTES // (n * h * w * x.itemsize))
    for c0 in range(0, c, group):
        part, rows = src[c0 : c0 + group], cols[c0 : c0 + group]
        for i, j, off, lo, hi, wrap in shifts:
            block = rows[:, i, j]
            block[:, :, :lo] = 0
            block[:, :, lo:hi] = part[:, :, lo + off : hi + off]
            block[:, :, hi:] = 0
            if wrap is not None:
                block.reshape(-1, n, h, w)[..., wrap] = 0
    return cols.reshape(c * kh * kw, n * h * w)


def _col2im_same(cols: np.ndarray, x_shape, kh: int, kw: int) -> np.ndarray:
    """Scatter-add a patch matrix straight onto the unpadded input.

    Each of the kh*kw adds is one long slice-add on the flattened (C, N, H*W)
    plane at the offset _same_shifts gives; positions outside ``lo:hi`` fall
    in the top or bottom padding and are skipped.  The wrapped columns would
    land on a neighbouring row, so they are first set to ``+0.0`` in
    ``cols``, which is overwritten.  The result keeps every finite value,
    infinity, signed zero and NaN position of a scatter-add onto the padded
    grid that is then cropped: the adds run in the same kernel order, and
    adding ``+0.0`` changes no sum, since each sum starts at ``+0.0`` and
    under round-to-nearest a sum that starts there is never ``-0.0``.  Which
    of two NaNs a sum keeps depends on where NumPy's add loop splits rows,
    so the sign and payload of a NaN are unspecified.  The result is an NCHW
    view of the channel-major buffer.
    """
    n, c, h, w = x_shape
    hw = h * w
    patches = cols.reshape(c, kh, kw, n, h, w)
    flat = patches.reshape(c, kh, kw, n, hw)
    out = np.zeros((c, n, hw), dtype=cols.dtype)
    for i, j, off, lo, hi, wrap in _same_shifts(h, w, kh, kw):
        if wrap is not None:
            patches[:, i, j, :, :, wrap] = 0
        if lo < hi:
            out[:, :, lo + off : hi + off] += flat[:, i, j, :, lo:hi]
    return out.reshape(c, n, h, w).transpose(1, 0, 2, 3)


def conv2d_forward(x: np.ndarray, p: LayerParams):
    """Stride-1 ``same`` cross-correlation of [N,C_in,H,W] with [C_out,C_in,kh,kw] kernels.

    The cache is ``(x, p)``: a reference to the input itself, no copy.
    """
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

    n, _, h, w = x.shape
    y = p.weights.reshape(c_out, c_in * kh * kw) @ _im2col_same(x, kh, kw)
    y += p.bias[:, None]
    y = y.reshape(c_out, n, h, w).transpose(1, 0, 2, 3)
    return y, (x, p)


def conv2d_backward(cache, grad_y: np.ndarray, input_grad: bool = True):
    """Gradients of conv2d_forward w.r.t. input, weights, and bias.

    The patch matrix is rebuilt from the cached input.  With
    ``input_grad=False`` the input gradient is not computed and comes back
    as None; the weight and bias gradients are the same either way.  The
    input gradient is an NCHW view of a channel-major buffer.
    """
    x, p = cache
    n, _, h, w = x.shape
    c_out, _, kh, kw = p.weights.shape
    if grad_y.shape != (n, c_out, h, w):
        raise ShapeError(
            f"grad shape {grad_y.shape} != forward output shape {(n, c_out, h, w)}"
        )
    g = grad_y.transpose(1, 0, 2, 3).reshape(c_out, n * h * w)
    grad_b = g.sum(axis=1)
    grad_w = (g @ _im2col_same(x, kh, kw).T).reshape(p.weights.shape)
    if not input_grad:
        return None, grad_w, grad_b
    grad_cols = p.weights.reshape(c_out, -1).T @ g
    grad_x = _col2im_same(grad_cols, x.shape, kh, kw)
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


def dense_backward(cache, grad_y: np.ndarray, input_grad: bool = True):
    """Gradients of dense_forward w.r.t. input, weights, and bias.

    The weight gradient is formed in the memory order of the weights:
    ``(grad_y.T @ x).T`` for the attention block's transposed views of
    [U, D] kernels (Fortran-ordered), which is the gradient of the kernel
    itself, NaN operand order included; ``x.T @ grad_y`` otherwise.  Some
    BLAS kernel sets (OpenBLAS's Haswell kernels, for one) give the two
    products different last bits, so neither stands in for the other.
    With ``input_grad=False`` the input gradient is not computed and comes
    back as None; the weight and bias gradients are the same either way.
    """
    x, p = cache
    if grad_y.shape != (x.shape[0], p.weights.shape[1]):
        raise ShapeError(f"grad shape {grad_y.shape} does not match dense output")
    grad_x = grad_y @ p.weights.T if input_grad else None
    grad_w = (grad_y.T @ x).T if p.weights.flags.f_contiguous else x.T @ grad_y
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
    """Spread each [N,C] gradient evenly over its H x W map, as a read-only view.

    A view, not a copy.  Which NaN an add of two NaNs keeps depends on
    NumPy's loop (vector lanes and the scalar tail can differ), so the
    attention block, which adds this to a full-size array, runs the same
    broadcast add as the inline form it is checked against bit for bit.
    """
    n, c, h, w = cache
    if grad_y.shape != (n, c):
        raise ShapeError(f"grad shape {grad_y.shape} != ({n}, {c})")
    return np.broadcast_to(grad_y[:, :, None, None] / grad_y.dtype.type(h * w), (n, c, h, w))


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

    The maximum of each pair of rows, ``x[:, :, 0::2, :]`` against
    ``x[:, :, 1::2, :]``, is taken first, reading whole rows and writing
    them C-contiguous in NCHW order whatever the layout of ``x`` (a
    channel-major view from conv2d_forward included); then the maximum of
    each pair of columns of that, also C-contiguous, so later reductions
    see the same memory order.  A window is therefore reduced as
    ``max(max(x00, x10), max(x01, x11))``.  The pairing order shows only in
    the sign of a zero maximum: ``np.maximum`` returns its second argument
    when the two compare equal, so in a window whose maximum is reached by
    both ``+0.0`` and ``-0.0`` the order decides the sign.  The cache is
    ``(x, y)``: references to the input and the output, no copies.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool input must be rank 4, got shape {x.shape}")
    h, w = x.shape[2:]
    if h < 2 or w < 2 or h % 2 or w % 2:
        raise ShapeError(f"maxpool needs even spatial dims >= 2, got {h}x{w}")
    rows = np.maximum(x[:, :, 0::2, :], x[:, :, 1::2, :], order="C")
    y = np.maximum(rows[..., 0::2], rows[..., 1::2], order="C")
    return y, (x, y)


def maxpool2d_backward(cache, grad_y: np.ndarray):
    """Route each window's gradient to the first input equal to its maximum.

    Offsets are tested in row-major order (0,0), (0,1), (1,0), (1,1), so a
    tie goes to the first element.  Each quarter of the gradient is written
    as the gradient's bits, viewed as unsigned integers of the same width,
    times that offset's hit mask: the routed input gets the upstream value
    bit for bit (``-0.0`` and NaN included), and every other input gets
    all-zero bits, which are ``+0.0``.  A window
    containing NaN has a NaN maximum that equals no input, so it routes no
    gradient; softmax_forward raises NumericError before training could
    backpropagate through one.  The gradient takes the memory layout of
    ``x``, so a conv's channel-major output gets a channel-major gradient.
    """
    x, y = cache
    if grad_y.shape != y.shape:
        raise ShapeError(f"grad shape {grad_y.shape} != {y.shape}")
    grad_x = np.empty_like(x, dtype=grad_y.dtype)
    bits = np.dtype(f"u{grad_y.dtype.itemsize}")
    g, out = grad_y.view(bits), grad_x.view(bits)
    free = np.ones(y.shape, dtype=bool)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = x[:, :, i::2, j::2] == y
        hit &= free
        free ^= hit  # hit lies inside free, so this clears the windows it took
        np.multiply(g, hit, out=out[:, :, i::2, j::2])
    return grad_x
