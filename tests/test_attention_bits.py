"""The attention block composed from layer primitives keeps every bit.

ca_forward and ca_backward call gap, dense, relu and sigmoid from layers.py;
their outputs and all gradients must equal, byte for byte, the form in
reference.py that writes those steps inline.  dense_backward forms its
weight gradient as ``(g.T @ x).T``, so the block's kernel gradients are the
inline form's ``g.T @ x`` products themselves.  The head's dense layers then
rest on the BLAS giving ``(g.T @ x).T`` the bits of ``x.T @ g`` for finite
float32 values, which the second test guards.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnens.attention import AttentionParams, ca_backward, ca_forward
from attnens.layers import LayerParams, dense_backward, dense_forward
from reference import ca_backward_inline, ca_forward_inline


def values(rng, dtype, shape, non_finite):
    # Signed values around 0 with a spread of 2; optionally one inf, one
    # -inf and one NaN.
    a = (rng.standard_normal(shape) * 2.0).astype(dtype)
    if non_finite and a.size >= 3:
        a.flat[rng.choice(a.size, 3, replace=False)] = [np.inf, -np.inf, np.nan]
    return a


@st.composite
def geometry(draw):
    c = draw(st.integers(1, 64))
    return c, draw(st.integers(1, c))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float32, np.float64]),
    n=st.integers(1, 64),
    channels=geometry(),
    h=st.integers(1, 4),
    w=st.integers(1, 4),
    non_finite=st.booleans(),
)
@example(seed=0, dtype=np.float32, n=8, channels=(64, 4), h=6, w=6, non_finite=False)
@example(seed=1, dtype=np.float64, n=1, channels=(1, 1), h=1, w=1, non_finite=False)
@example(seed=2, dtype=np.float32, n=64, channels=(64, 1), h=2, w=3, non_finite=True)
def test_attention_matches_inline_form(seed, dtype, n, channels, h, w, non_finite):
    c, reduction = channels
    cr = c // reduction
    rng = np.random.default_rng(seed)
    x = values(rng, dtype, (n, c, h, w), non_finite)
    p = AttentionParams(
        reduce=LayerParams("attn_reduce", values(rng, dtype, (cr, c, 1, 1), False),
                           values(rng, dtype, (cr,), False)),
        expand=LayerParams("attn_expand", values(rng, dtype, (c, cr, 1, 1), False),
                           values(rng, dtype, (c,), False)),
    )
    grad_y = values(rng, dtype, (n, c, h, w), non_finite)
    with np.errstate(invalid="ignore", over="ignore"):
        y, s, cache = ca_forward(x, p)
        want_y, want_s, want_cache = ca_forward_inline(x, p)
        grad_x, grads = ca_backward(cache, grad_y)
        want_grad_x, want_grads = ca_backward_inline(want_cache, grad_y)
    assert cache[4] is s
    got = [y, s, grad_x, *grads["reduce"], *grads["expand"]]
    want = [want_y, want_s, want_grad_x, *want_grads["reduce"], *want_grads["expand"]]
    for g, wg in zip(got, want):
        assert g.dtype == wg.dtype
        assert g.shape == wg.shape
        assert g.tobytes() == wg.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 64),
    d=st.integers(1, 256),
    u=st.integers(1, 256),
)
@example(seed=0, n=8, d=64, u=128)
@example(seed=1, n=64, d=128, u=6)
def test_dense_weight_gradient_keeps_finite_float32_bits(seed, n, d, u):
    rng = np.random.default_rng(seed)
    x = values(rng, np.float32, (n, d), False)
    g = values(rng, np.float32, (n, u), False)
    p = LayerParams("fc", values(rng, np.float32, (d, u), False),
                    values(rng, np.float32, (u,), False))
    _, cache = dense_forward(x, p)
    _, grad_w, _ = dense_backward(cache, g)
    assert grad_w.tobytes() == (x.T @ g).tobytes()
