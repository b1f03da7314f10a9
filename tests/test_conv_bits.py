"""The conv layer matches its patch-matrix-caching form bit for bit.

conv2d_forward keeps its input instead of the im2col patch matrix and
conv2d_backward rebuilds that matrix; the output and the weight and bias
gradients must keep every bit of the form in reference.py, for either
memory layout of the upstream gradient and with or without the input
gradient.  The input gradient must keep every finite value, infinity,
signed zero and NaN position of that form; the sign and payload of a NaN
there are unspecified, since which of two NaNs a sum keeps depends on
where NumPy's add loop splits rows.  The matrix itself, built without a
padded copy, must equal the gather from the padded input.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnens import layers
from attnens.layers import LayerParams, _im2col, _im2col_same, conv2d_backward, conv2d_forward
from reference import conv2d_backward_cols, conv2d_forward_cols


def values(rng, dtype, shape, non_finite):
    # Signed values around 0 with a spread of 2, so rounding and signed zeros
    # show in the bits; optionally one inf, one -inf and one NaN.
    a = (rng.standard_normal(shape) * 2.0).astype(dtype)
    if non_finite and a.size >= 3:
        a.flat[rng.choice(a.size, 3, replace=False)] = [np.inf, -np.inf, np.nan]
    return a


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_bits_but_nan_payload(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float32, np.float64]),
    n=st.integers(1, 4),
    c_in=st.integers(1, 5),
    c_out=st.integers(1, 5),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    kh=st.integers(1, 5),
    kw=st.integers(1, 5),
    non_finite=st.booleans(),
    channel_major=st.booleans(),
)
@example(seed=0, dtype=np.float32, n=4, c_in=3, c_out=5, h=9, w=9, kh=3, kw=3,
         non_finite=False, channel_major=True)
@example(seed=1, dtype=np.float64, n=1, c_in=1, c_out=1, h=1, w=1, kh=5, kw=5,
         non_finite=True, channel_major=False)
@example(seed=2, dtype=np.float32, n=2, c_in=5, c_out=2, h=9, w=4, kh=5, kw=2,
         non_finite=True, channel_major=True)
@example(seed=3, dtype=np.float32, n=2, c_in=2, c_out=3, h=1, w=2, kh=3, kw=3,
         non_finite=True, channel_major=True)
@example(seed=4, dtype=np.float64, n=2, c_in=2, c_out=3, h=1, w=2, kh=3, kw=3,
         non_finite=False, channel_major=False)
@example(seed=5, dtype=np.float32, n=1, c_in=2, c_out=2, h=1, w=4, kh=1, kw=2,
         non_finite=True, channel_major=False)
@example(seed=6, dtype=np.float64, n=3, c_in=1, c_out=2, h=1, w=4, kh=1, kw=2,
         non_finite=False, channel_major=True)
# Two NaNs of opposite sign meet in one input gradient sum: which one the
# sum keeps depends on the layout of NumPy's add loop, so only the NaN's
# position is compared.
@example(seed=945166504, dtype=np.float32, n=1, c_in=3, c_out=3, h=1, w=9, kh=4, kw=4,
         non_finite=True, channel_major=False)
def test_conv_matches_patch_matrix_form(
    seed, dtype, n, c_in, c_out, h, w, kh, kw, non_finite, channel_major
):
    rng = np.random.default_rng(seed)
    x = values(rng, dtype, (n, c_in, h, w), non_finite)
    p = LayerParams("conv", values(rng, dtype, (c_out, c_in, kh, kw), False),
                    values(rng, dtype, (c_out,), False))
    with np.errstate(invalid="ignore", over="ignore"):
        y, cache = conv2d_forward(x, p)
        want_y, want_cache = conv2d_forward_cols(x, p)
        assert_same_bits(y, want_y)

        if channel_major:
            grad_y = values(rng, dtype, (c_out, n, h, w), non_finite).transpose(1, 0, 2, 3)
        else:
            grad_y = values(rng, dtype, (n, c_out, h, w), non_finite)
        gx, gw, gb = conv2d_backward(cache, grad_y)
        want = conv2d_backward_cols(want_cache, grad_y)
        assert_same_bits_but_nan_payload(gx, want[0])
        assert_same_bits(gw, want[1])
        assert_same_bits(gb, want[2])

        gx, gw, gb = conv2d_backward(cache, grad_y, input_grad=False)
        assert gx is None
        assert_same_bits(gw, want[1])
        assert_same_bits(gb, want[2])


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float32, np.float64]),
    n=st.integers(1, 4),
    c=st.integers(1, 5),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    kh=st.integers(1, 5),
    kw=st.integers(1, 5),
    layout=st.sampled_from(["nchw", "channel_major", "channels_last"]),
    gather_bytes=st.sampled_from([1, 300, 1000, layers._GATHER_BYTES]),
)
def test_patch_builder_matches_padded_gather(
    seed, dtype, n, c, h, w, kh, kw, layout, gather_bytes
):
    # _im2col_same never pads x, but must return the very matrix the gather
    # from the padded copy returns: bits (signed zeros, infs and NaNs
    # included), shape, dtype and memory layout, which decides the order in
    # which matmul adds.  Small gather budgets split the channels into
    # groups, as the default does at full batch size.  A channels-last
    # batch is what stacking transposed views of [H, W, C] images gives.
    rng = np.random.default_rng(seed)
    order = {"nchw": (0, 1, 2, 3), "channel_major": (1, 0, 2, 3), "channels_last": (0, 2, 3, 1)}
    stored = tuple((n, c, h, w)[k] for k in order[layout])
    x = (rng.standard_normal(stored) * 2.0).astype(dtype)
    special = rng.random(stored) < 0.3
    x[special] = rng.choice(SPECIAL, size=int(special.sum()))
    x = x.transpose(np.argsort(order[layout]))
    assert x.shape == (n, c, h, w)
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl)))
    with mock.patch.object(layers, "_GATHER_BYTES", gather_bytes):
        got = _im2col_same(x, kh, kw)
    want = _im2col(xp, kh, kw)
    assert_same_bits(got, want)
    assert got.flags.c_contiguous == want.flags.c_contiguous
