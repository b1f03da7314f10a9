"""Independent reference implementations used as test oracles.

Everything here is written in the most literal style possible (scalar loops,
no vectorization, no shared helpers from the package under test) so that a
bug in the library cannot hide in its own oracle.
"""

import math

import numpy as np


def conv2d_naive(x, w, b, stride=1, padding="same"):
    """Direct six-loop cross-correlation. x [N,C,H,W], w [O,C,kh,kw], b [O]."""
    n, c, h, wd = x.shape
    out_c, in_c, kh, kw = w.shape
    assert in_c == c
    if padding == "same":
        out_h = -(-h // stride)
        out_w = -(-wd // stride)
        pad_h = max((out_h - 1) * stride + kh - h, 0)
        pad_w = max((out_w - 1) * stride + kw - wd, 0)
        top, left = pad_h // 2, pad_w // 2
    elif padding == "valid":
        out_h = (h - kh) // stride + 1
        out_w = (wd - kw) // stride + 1
        top = left = 0
    else:
        raise ValueError(padding)
    y = np.zeros((n, out_c, out_h, out_w), dtype=x.dtype)
    for img in range(n):
        for o in range(out_c):
            for i in range(out_h):
                for j in range(out_w):
                    acc = 0.0
                    for ch in range(c):
                        for di in range(kh):
                            for dj in range(kw):
                                src_i = i * stride + di - top
                                src_j = j * stride + dj - left
                                if 0 <= src_i < h and 0 <= src_j < wd:
                                    acc += float(x[img, ch, src_i, src_j]) * float(
                                        w[o, ch, di, dj]
                                    )
                    y[img, o, i, j] = acc + float(b[o])
    return y


def maxpool_naive(x):
    """2x2 stride-2 max pooling via explicit window loops."""
    n, c, h, w = x.shape
    y = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    for img in range(n):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    y[img, ch, i, j] = max(
                        x[img, ch, 2 * i, 2 * j],
                        x[img, ch, 2 * i, 2 * j + 1],
                        x[img, ch, 2 * i + 1, 2 * j],
                        x[img, ch, 2 * i + 1, 2 * j + 1],
                    )
    return y


def maxpool_backward_naive(x, grad_y):
    """Send each window's gradient to its first maximal element, row-major."""
    n, c, h, w = x.shape
    grad_x = np.zeros(x.shape, dtype=grad_y.dtype)
    for img in range(n):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    best_i, best_j = 2 * i, 2 * j
                    for di in range(2):
                        for dj in range(2):
                            if x[img, ch, 2 * i + di, 2 * j + dj] > x[img, ch, best_i, best_j]:
                                best_i, best_j = 2 * i + di, 2 * j + dj
                    grad_x[img, ch, best_i, best_j] = grad_y[img, ch, i, j]
    return grad_x


def maxpool_backward_where(x, y, grad_y):
    """The maxpool backward pass as it was before it routed integer bits.

    First-match routing with ``np.where(hit, grad_y, 0)``, an NCHW result.
    Unlike maxpool_backward_naive, a NaN window routes nothing, as in the
    library.
    """
    grad_x = np.empty(x.shape, dtype=grad_y.dtype)
    free = np.ones(y.shape, dtype=bool)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = (x[:, :, i::2, j::2] == y) & free
        free &= ~hit
        grad_x[:, :, i::2, j::2] = np.where(hit, grad_y, grad_y.dtype.type(0))
    return grad_x


def gap_naive(x):
    n, c, h, w = x.shape
    y = np.zeros((n, c), dtype=x.dtype)
    for img in range(n):
        for ch in range(c):
            y[img, ch] = x[img, ch].sum() / (h * w)
    return y


def attention_naive(x, reduce_w, reduce_b, expand_w, expand_b):
    """Straight-line channel gating: GAP -> 1x1 bottleneck -> sigmoid -> scale."""
    n, c, h, w = x.shape
    reduced = reduce_w.shape[0]
    y = np.zeros_like(x)
    s_all = np.zeros((n, c))
    for img in range(n):
        z = [float(x[img, ch].mean()) for ch in range(c)]
        hidden = []
        for r in range(reduced):
            acc = float(reduce_b[r])
            for ch in range(c):
                acc += float(reduce_w[r, ch, 0, 0]) * z[ch]
            hidden.append(max(acc, 0.0))
        for ch in range(c):
            acc = float(expand_b[ch])
            for r in range(reduced):
                acc += float(expand_w[ch, r, 0, 0]) * hidden[r]
            s = 1.0 / (1.0 + math.exp(-acc))
            s_all[img, ch] = s
            y[img, ch] = x[img, ch] * s
    return y, s_all


def cross_entropy_scalar(y_true, y_pred, eps=1e-7):
    """Scalar-loop categorical cross-entropy with probability clipping."""
    n, k = y_true.shape
    total = 0.0
    for i in range(n):
        for j in range(k):
            p = float(y_pred[i, j])
            p = min(max(p, eps), 1.0)
            total += float(y_true[i, j]) * math.log(p)
    return -total / n


def combine_naive(rows_by_member, weights):
    """Brute-force weighted average of prediction arrays, cell by cell."""
    n, k = rows_by_member[0].shape
    out = np.zeros((n, k))
    total = sum(weights)
    for i in range(n):
        for j in range(k):
            acc = 0.0
            for m, rows in enumerate(rows_by_member):
                acc += weights[m] * float(rows[i, j])
            out[i, j] = acc / total
    return out


def accuracy_naive(probs, labels):
    """Row-by-row argmax with lowest-index tie breaking."""
    hits = 0
    for i, row in enumerate(probs):
        best, best_p = 0, row[0]
        for j, p in enumerate(row):
            if p > best_p:
                best, best_p = j, p
        if best == labels[i]:
            hits += 1
    return hits / len(labels)


def resize_bilinear_naive(image, out_h, out_w):
    """Per-pixel bilinear resample with half-pixel centers and edge clamping."""
    h, w, c = image.shape
    out = np.zeros((out_h, out_w, c), dtype=image.dtype)
    for i in range(out_h):
        for j in range(out_w):
            sy = (i + 0.5) * h / out_h - 0.5
            sx = (j + 0.5) * w / out_w - 0.5
            y0 = math.floor(sy)
            x0 = math.floor(sx)
            fy = sy - y0
            fx = sx - x0

            def clamp(v, hi):
                return min(max(v, 0), hi - 1)

            for ch in range(c):
                tl = image[clamp(y0, h), clamp(x0, w), ch]
                tr = image[clamp(y0, h), clamp(x0 + 1, w), ch]
                bl = image[clamp(y0 + 1, h), clamp(x0, w), ch]
                br = image[clamp(y0 + 1, h), clamp(x0 + 1, w), ch]
                top = tl * (1 - fx) + tr * fx
                bot = bl * (1 - fx) + br * fx
                out[i, j, ch] = top * (1 - fy) + bot * fy
    return out


def dense_naive(x, w, b):
    n, d = x.shape
    d2, u = w.shape
    y = np.zeros((n, u), dtype=x.dtype)
    for i in range(n):
        for j in range(u):
            acc = 0.0
            for k in range(d):
                acc += float(x[i, k]) * float(w[k, j])
            y[i, j] = acc + float(b[j])
    return y


def softmax_naive(logits):
    out = np.zeros_like(logits, dtype=np.float64)
    for i, row in enumerate(logits):
        m = max(float(v) for v in row)
        exps = [math.exp(float(v) - m) for v in row]
        s = sum(exps)
        out[i] = [e / s for e in exps]
    return out


def sample_bilinear_gather(image, xs, ys, fill):
    """Four-corner bilinear gather by 2-D advanced indexing; fill 'zero' or 'edge'.

    The resampler as it was before it became separable and flat-indexed; the
    library's resize and augmentation must match it bit for bit.
    """
    c, h, w = image.shape
    one = image.dtype.type(1)
    if fill == "edge":
        xs = np.clip(xs, 0.0, w - 1.0)
        ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    wx = (xs - x0).astype(image.dtype)
    wy = (ys - y0).astype(image.dtype)

    def corner(yi, xi):
        inside = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        vals = image[:, yi.clip(0, h - 1), xi.clip(0, w - 1)]
        if fill == "zero":
            vals = vals * inside.astype(image.dtype)
        return vals

    top = (one - wx) * corner(y0, x0) + wx * corner(y0, x0 + 1)
    bottom = (one - wx) * corner(y0 + 1, x0) + wx * corner(y0 + 1, x0 + 1)
    return (one - wy) * top + wy * bottom


def resize_bilinear_gather(image, out_h, out_w):
    """Half-pixel-center resize over a full coordinate meshgrid, edge clamped."""
    _, h, w = image.shape
    if (out_h, out_w) == (h, w):
        return image.copy()
    src_y = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    src_x = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    ys, xs = np.meshgrid(src_y, src_x, indexing="ij")
    return sample_bilinear_gather(image, xs, ys, fill="edge")


def augment_gather(image, angle_deg, flip, shift_x_frac, shift_y_frac):
    """Rotate, flip, then shift as one zero-filled resample over a full meshgrid."""
    if angle_deg == 0.0 and not flip and shift_x_frac == 0.0 and shift_y_frac == 0.0:
        return image.copy()
    _, h, w = image.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    dx = shift_x_frac * w
    dy = shift_y_frac * h
    theta = np.deg2rad(angle_deg)
    ys_out, xs_out = np.meshgrid(
        np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij"
    )
    xs = xs_out - dx
    ys = ys_out - dy
    if flip:
        xs = (w - 1) - xs
    xr = xs - cx
    yr = ys - cy
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    xs_src = cos_t * xr + sin_t * yr + cx
    ys_src = -sin_t * xr + cos_t * yr + cy
    out = sample_bilinear_gather(image, xs_src, ys_src, fill="zero")
    return np.clip(out, 0.0, 1.0)


def im2col_strided(xp, kh, kw, stride):
    """Unfold padded [N,C,H,W] into a (C*kh*kw, N*ho*wo) patch matrix."""
    n, c, h, w = xp.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, ho, wo),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )
    return windows.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, n * ho * wo)


def col2im_nchw(cols, padded_shape, kh, kw, stride):
    """Scatter-add a patch matrix back onto the padded input grid, NCHW."""
    n, c, h, w = padded_shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    patches = cols.reshape(c, kh, kw, n, ho, wo).transpose(3, 0, 1, 2, 4, 5)
    out = np.zeros(padded_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                patches[:, :, i, j]
            )
    return out


def conv2d_forward_cols(x, p, stride=1, padding="same"):
    """The conv forward pass as it was when its cache held the patch matrix.

    ``p`` has ``weights`` and ``bias``.  The library's conv must match this
    and conv2d_backward_cols bit for bit; input checks are left out.
    """
    c_out, c_in, kh, kw = p.weights.shape
    n, _, h, w = x.shape
    if padding == "same":
        ho, wo = -(-h // stride), -(-w // stride)
        need_h = max((ho - 1) * stride + kh - h, 0)
        need_w = max((wo - 1) * stride + kw - w, 0)
        pt, pl = need_h // 2, need_w // 2
        pb, pr = need_h - pt, need_w - pl
        xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    else:
        pt = pb = pl = pr = 0
        ho = (h - kh) // stride + 1
        wo = (w - kw) // stride + 1
        xp = x

    cols = im2col_strided(xp, kh, kw, stride)
    w_mat = p.weights.reshape(c_out, c_in * kh * kw)
    y = (w_mat @ cols).reshape(c_out, n, ho, wo).transpose(1, 0, 2, 3)
    y = y + p.bias[None, :, None, None]
    cache = (x.shape, (pt, pb, pl, pr), stride, p, cols, (ho, wo))
    return y, cache


def conv2d_backward_cols(cache, grad_y):
    """Gradients of conv2d_forward_cols w.r.t. input, weights, and bias."""
    x_shape, (pt, pb, pl, pr), stride, p, cols, (ho, wo) = cache
    n, c_in, h, w = x_shape
    c_out = p.weights.shape[0]
    g = grad_y.transpose(1, 0, 2, 3).reshape(c_out, n * ho * wo)
    grad_b = g.sum(axis=1)
    grad_w = (g @ cols.T).reshape(p.weights.shape)
    w_mat = p.weights.reshape(c_out, -1)
    grad_cols = w_mat.T @ g
    padded_shape = (n, c_in, h + pt + pb, w + pl + pr)
    kh, kw = p.weights.shape[2:]
    grad_xp = col2im_nchw(grad_cols, padded_shape, kh, kw, stride)
    grad_x = grad_xp[:, :, pt : pt + h, pl : pl + w]
    return grad_x, grad_w, grad_b


def sigmoid_split(x):
    """Sigmoid as layers.sigmoid_forward computes it, for ca_forward_inline."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ca_forward_inline(x, p):
    """The attention block with gap, dense, ReLU and sigmoid written inline.

    attention.ca_forward and ca_backward compose the same steps from the
    layer primitives and must match this and ca_backward_inline bit for bit.
    Input checks are left out.
    """
    n, c, h, w = x.shape
    cr = p.reduce.weights.shape[0]
    wr = p.reduce.weights.reshape(cr, c)
    we = p.expand.weights.reshape(c, cr)

    z = x.mean(axis=(2, 3))
    u = z @ wr.T + p.reduce.bias
    hidden = np.maximum(u, 0)
    v = hidden @ we.T + p.expand.bias
    s = sigmoid_split(v)
    y = x * s[:, :, None, None]
    cache = (x, z, u, hidden, s, p)
    return y, s, cache


def ca_backward_inline(cache, grad_y):
    """Gradients of ca_forward_inline w.r.t. the input and both parameter pairs."""
    x, z, u, hidden, s, p = cache
    n, c, h, w = x.shape
    cr = p.reduce.weights.shape[0]
    wr = p.reduce.weights.reshape(cr, c)
    we = p.expand.weights.reshape(c, cr)

    grad_s = (grad_y * x).sum(axis=(2, 3))
    grad_v = grad_s * s * (1.0 - s)
    grad_we = grad_v.T @ hidden
    grad_eb = grad_v.sum(axis=0)
    grad_hidden = grad_v @ we
    grad_u = grad_hidden * (u > 0)
    grad_wr = grad_u.T @ z
    grad_rb = grad_u.sum(axis=0)
    grad_z = grad_u @ wr

    grad_x = grad_y * s[:, :, None, None]
    grad_x = grad_x + np.broadcast_to(
        grad_z[:, :, None, None] / grad_y.dtype.type(h * w), x.shape
    )
    grads = {
        "reduce": (grad_wr.reshape(p.reduce.weights.shape), grad_rb),
        "expand": (grad_we.reshape(p.expand.weights.shape), grad_eb),
    }
    return grad_x, grads
