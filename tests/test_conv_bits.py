"""The conv layer matches its patch-matrix-caching form bit for bit.

conv2d_forward keeps the padded input instead of the im2col patch matrix and
conv2d_backward rebuilds that matrix; outputs and gradients must keep every
bit of the form in reference.py, for either memory layout of the upstream
gradient and with or without the input gradient.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from attnens.layers import LayerParams, conv2d_backward, conv2d_forward
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
    stride=st.integers(1, 2),
    padding=st.sampled_from(["same", "valid"]),
    non_finite=st.booleans(),
    channel_major=st.booleans(),
)
@example(seed=0, dtype=np.float32, n=4, c_in=3, c_out=5, h=9, w=9, kh=3, kw=3, stride=1,
         padding="same", non_finite=False, channel_major=True)
@example(seed=1, dtype=np.float64, n=1, c_in=1, c_out=1, h=1, w=1, kh=5, kw=5, stride=2,
         padding="same", non_finite=True, channel_major=False)
@example(seed=2, dtype=np.float32, n=2, c_in=5, c_out=2, h=9, w=4, kh=5, kw=2, stride=2,
         padding="valid", non_finite=True, channel_major=True)
def test_conv_matches_patch_matrix_form(
    seed, dtype, n, c_in, c_out, h, w, kh, kw, stride, padding, non_finite, channel_major
):
    if padding == "valid":
        assume(kh <= h and kw <= w)
    rng = np.random.default_rng(seed)
    x = values(rng, dtype, (n, c_in, h, w), non_finite)
    p = LayerParams("conv", values(rng, dtype, (c_out, c_in, kh, kw), False),
                    values(rng, dtype, (c_out,), False))
    with np.errstate(invalid="ignore", over="ignore"):
        y, cache = conv2d_forward(x, p, stride, padding)
        want_y, want_cache = conv2d_forward_cols(x, p, stride, padding)
        assert_same_bits(y, want_y)

        ho, wo = y.shape[2:]
        if channel_major:
            grad_y = values(rng, dtype, (c_out, n, ho, wo), non_finite).transpose(1, 0, 2, 3)
        else:
            grad_y = values(rng, dtype, (n, c_out, ho, wo), non_finite)
        got = conv2d_backward(cache, grad_y)
        want = conv2d_backward_cols(want_cache, grad_y)
        for g, wg in zip(got, want):
            assert_same_bits(g, wg)

        gx, gw, gb = conv2d_backward(cache, grad_y, input_grad=False)
        assert gx is None
        assert_same_bits(gw, want[1])
        assert_same_bits(gb, want[2])
