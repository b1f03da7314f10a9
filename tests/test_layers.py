"""Forward/backward behavior of the network building blocks.

Forward passes are checked against the scalar-loop oracles in reference.py;
backward passes get dedicated finite-difference coverage in test_gradcheck.
"""

import numpy as np
import pytest

from attnens.errors import NumericError, ShapeError
from attnens.layers import (
    ForwardMode,
    LayerParams,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    gap_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    relu_backward,
    relu_forward,
    sigmoid_forward,
    softmax_forward,
)
from attnens.model import _KINDS
from reference import (
    conv2d_naive,
    dense_naive,
    gap_naive,
    maxpool_backward_naive,
    maxpool_backward_where,
    maxpool_naive,
    softmax_naive,
)


def conv_params(w, b):
    return LayerParams(name="conv", weights=w, bias=b)


class TestConv2d:
    def test_one_by_one_identity(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        y, _ = conv2d_forward(x, conv_params(w, b))
        np.testing.assert_array_equal(y, x)

    def test_matches_naive_over_shapes(self):
        rng = np.random.default_rng(3)
        cases = [
            # (N, C, H, W, O, kh, kw)
            (2, 3, 7, 7, 4, 3, 3),
            (1, 2, 8, 6, 3, 3, 3),
            (2, 1, 5, 5, 2, 2, 2),
            (1, 4, 9, 9, 1, 5, 5),
            (3, 2, 6, 8, 2, 3, 1),
            (1, 1, 4, 4, 1, 4, 4),
        ]
        for n, c, h, wd, o, kh, kw in cases:
            x = rng.standard_normal((n, c, h, wd)).astype(np.float64)
            w = rng.standard_normal((o, c, kh, kw)).astype(np.float64)
            b = rng.standard_normal(o).astype(np.float64)
            y, _ = conv2d_forward(x, conv_params(w, b))
            np.testing.assert_allclose(y, conv2d_naive(x, w, b), rtol=1e-10, atol=1e-10)

    def test_backward_shapes(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        y, cache = conv2d_forward(x, conv_params(w, b))
        gx, gw, gb = conv2d_backward(cache, np.ones_like(y))
        assert gx.shape == x.shape
        assert gw.shape == w.shape
        assert gb.shape == b.shape

    def test_rejects_channel_mismatch(self):
        x = np.zeros((1, 2, 4, 4), dtype=np.float32)
        w = np.zeros((1, 3, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError):
            conv2d_forward(x, conv_params(w, np.zeros(1, dtype=np.float32)))


class TestDense:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal((4, 6))
            w = rng.standard_normal((6, 3))
            b = rng.standard_normal(3)
            y, _ = dense_forward(x, LayerParams(name="fc", weights=w, bias=b))
            np.testing.assert_allclose(y, dense_naive(x, w, b), rtol=1e-12)

    def test_backward_is_transpose_algebra(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        _, cache = dense_forward(x, LayerParams(name="fc", weights=w, bias=b))
        g = rng.standard_normal((5, 3))
        gx, gw, gb = dense_backward(cache, g)
        np.testing.assert_allclose(gx, g @ w.T, rtol=1e-12)
        np.testing.assert_allclose(gw, x.T @ g, rtol=1e-12)
        np.testing.assert_allclose(gb, g.sum(axis=0), rtol=1e-12)


class TestActivations:
    def test_relu_values(self):
        x = np.array([-2.0, -0.0, 0.0, 3.5])
        y, _ = relu_forward(x)
        np.testing.assert_array_equal(y, [0.0, 0.0, 0.0, 3.5])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_matches_input_mask_bitwise(self, dtype):
        x = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, -1.5, 2.5, 1e-38], dtype=dtype)
        g = np.array([-1.0, 2.0, -3.0, 4.0, -5.0, 6.0, -7.0, 8.0, -9.0], dtype=dtype)
        _, cache = relu_forward(x)
        gx = relu_backward(cache, g)
        assert gx.dtype == dtype
        assert gx.tobytes() == (g * (x > 0)).tobytes()

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-10, 10, 41)
        y, _ = sigmoid_forward(x)
        assert np.all((y > 0) & (y < 1))
        np.testing.assert_allclose(y + y[::-1], np.ones_like(y), rtol=1e-12)

    def test_sigmoid_extreme_inputs_stable(self):
        y, _ = sigmoid_forward(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-12)

    def test_softmax_matches_naive(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((8, 5)) * 10
        np.testing.assert_allclose(softmax_forward(logits), softmax_naive(logits), rtol=1e-12)

    def test_softmax_rows_sum_to_one_with_huge_logits(self):
        logits = np.array([[1e4, 1e4 - 5.0, 0.0], [-1e4, 0.0, 1e4]])
        p = softmax_forward(logits)
        np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], rtol=1e-12)

    def test_softmax_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            softmax_forward(np.array([[np.nan, 0.0]]))
        with pytest.raises(NumericError):
            softmax_forward(np.array([[np.inf, 0.0]]))


class TestPooling:
    def test_gap_matches_naive(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 4, 5, 7))
        y, _ = gap_forward(x)
        np.testing.assert_allclose(y, gap_naive(x), rtol=1e-12)

    def test_maxpool_matches_naive(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 8, 6))
        y, _ = maxpool2d_forward(x)
        np.testing.assert_array_equal(y, maxpool_naive(x))

    def test_maxpool_rejects_odd_dims(self):
        with pytest.raises(ShapeError):
            maxpool2d_forward(np.zeros((1, 1, 5, 4)))

    def test_maxpool_tie_routes_to_first_in_row_major(self):
        # all four window entries equal: gradient must land on the top-left one
        x = np.ones((1, 1, 2, 2))
        y, cache = maxpool2d_forward(x)
        gx = maxpool2d_backward(cache, np.full((1, 1, 1, 1), 5.0))
        np.testing.assert_array_equal(gx[0, 0], [[5.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_backward_matches_naive_for_every_tie_pattern(self, dtype):
        # channel k holds one 2x2 window whose maximum sits at the offsets
        # named by the bits of k + 1: all 15 non-empty tie patterns
        below = np.array([-2.0, 0.25, 1.0, -0.5])
        x = np.empty((2, 15, 2, 2), dtype=dtype)
        for k in range(15):
            for pos in range(4):
                x[:, k, pos // 2, pos % 2] = 1.5 if (k + 1) >> pos & 1 else below[pos]
        x[1] -= 3.0
        g = np.random.default_rng(11).uniform(-2.0, 2.0, size=(2, 15, 1, 1)).astype(dtype)
        _, cache = maxpool2d_forward(x)
        gx = maxpool2d_backward(cache, g)
        expected = maxpool_backward_naive(x, g)
        assert gx.dtype == dtype
        assert gx.tobytes() == expected.tobytes()

    def test_maxpool_forward_of_channel_major_view_is_c_contiguous(self):
        # conv2d_forward returns a channel-major transposed view; the pooled
        # output must still be plain NCHW so later reductions keep their order
        rng = np.random.default_rng(12)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        conv_out, _ = conv2d_forward(
            rng.standard_normal((4, 3, 6, 8)).astype(np.float32),
            conv_params(w, np.zeros(5, np.float32)),
        )
        x, _ = relu_forward(conv_out)
        assert not x.flags.c_contiguous
        y, _ = maxpool2d_forward(x)
        assert y.flags.c_contiguous
        assert y.dtype == np.float32
        np.testing.assert_array_equal(y, maxpool_naive(x))

    def test_maxpool_backward_zeros_are_positive(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 4, 6))
        _, cache = maxpool2d_forward(x)
        gx = maxpool2d_backward(cache, -rng.uniform(0.5, 1.0, size=(2, 3, 2, 3)))
        zeros = gx[gx == 0]
        assert zeros.size == 3 * gx.size // 4
        assert not np.signbit(zeros).any()

    def test_maxpool_backward_nan_window_routes_nothing(self):
        x = np.array([[[[1.0, np.nan, 2.0, 3.0], [0.5, 0.0, 4.0, -1.0]]]])
        y, cache = maxpool2d_forward(x)
        assert np.isnan(y[0, 0, 0, 0]) and y[0, 0, 0, 1] == 4.0
        gx = maxpool2d_backward(cache, np.array([[[[7.0, 9.0]]]]))
        np.testing.assert_array_equal(gx[0, 0], [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 9.0, 0.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channel_major", [False, True])
    def test_fused_relu_maxpool_matches_the_pair_bitwise(self, dtype, channel_major):
        # Few distinct values, so windows tie, ReLU zeroes whole windows and
        # NaN and inf reach both the pool and the gradient.
        forward, backward = _KINDS["relu_maxpool"]
        x_values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.nan, np.inf, -np.inf], dtype)
        g_values = np.array([-1.5, -0.0, 0.0, 0.25, 3.0, np.nan, np.inf, -np.inf], dtype)
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, c = rng.integers(1, 4, size=2)
            h, w = 2 * rng.integers(1, 4, size=2)
            if channel_major:
                x = rng.choice(x_values, size=(c, n, h, w)).transpose(1, 0, 2, 3)
            else:
                x = rng.choice(x_values, size=(n, c, h, w))
            g = rng.choice(g_values, size=(n, c, h // 2, w // 2))
            with np.errstate(invalid="ignore"):
                y, cache = forward(x)
                gx, pairs = backward(cache, g)
                r, relu_cache = relu_forward(x)
                want_y, pool_cache = maxpool2d_forward(r)
                want = relu_backward(relu_cache, maxpool2d_backward(pool_cache, g))
                old = relu_backward(relu_cache, maxpool_backward_where(r, want_y, g))
            assert pairs == ()
            assert y.tobytes() == want_y.tobytes()
            assert gx.dtype == want.dtype == dtype
            assert gx.shape == want.shape
            assert gx.tobytes() == want.tobytes() == old.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_backward_keeps_gradient_bits(self, dtype):
        # A routed -0.0 or NaN keeps its bits; every input not routed to is +0.0.
        x = np.array([[[[1.0, 0.0, 2.0, 2.0], [0.0, 0.0, 2.0, 1.0]]]], dtype)
        nan = np.frombuffer(np.array([-1], dtype=f"i{x.itemsize}").tobytes(), dtype)[0]
        g = np.array([[[[-0.0, nan]]]], dtype)
        _, cache = maxpool2d_forward(x)
        gx = maxpool2d_backward(cache, g)
        want = np.zeros_like(x)
        want[0, 0, 0, 0], want[0, 0, 0, 2] = g[0, 0, 0]
        assert gx.tobytes() == want.tobytes()
        assert gx.tobytes() == maxpool_backward_where(x, cache[1], g).tobytes()

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [4.0, 3.0]]]])
        _, cache = maxpool2d_forward(x)
        gx = maxpool2d_backward(cache, np.array([[[[1.0]]]]))
        np.testing.assert_array_equal(gx[0, 0], [[0.0, 0.0], [1.0, 0.0]])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.random.default_rng(0).standard_normal((4, 5))
        y, mask = dropout_forward(x, 0.5, ForwardMode.eval())
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(mask, np.ones_like(x))

    def test_rate_zero_is_identity_in_train(self):
        x = np.random.default_rng(1).standard_normal((4, 5))
        y, mask = dropout_forward(x, 0.0, ForwardMode.train(3))
        np.testing.assert_array_equal(y, x)

    def test_mask_values_are_zero_or_inverse_keep(self):
        x = np.ones((50, 50))
        rate = 0.4
        _, mask = dropout_forward(x, rate, ForwardMode.train(7))
        values = np.unique(mask)
        np.testing.assert_allclose(values, [0.0, 1.0 / (1.0 - rate)], rtol=1e-6)

    def test_seeded_masks_repeat(self):
        x = np.ones((10, 10))
        _, m1 = dropout_forward(x, 0.3, ForwardMode.train(11))
        _, m2 = dropout_forward(x, 0.3, ForwardMode.train(11))
        np.testing.assert_array_equal(m1, m2)
        _, m3 = dropout_forward(x, 0.3, ForwardMode.train(12))
        assert not np.array_equal(m1, m3)

    def test_expected_scale_preserved(self):
        x = np.ones((200, 200))
        y, _ = dropout_forward(x, 0.4, ForwardMode.train(5))
        assert abs(y.mean() - 1.0) < 0.02

    def test_backward_applies_same_mask(self):
        x = np.ones((6, 6))
        _, mask = dropout_forward(x, 0.5, ForwardMode.train(9))
        g = np.full((6, 6), 2.0)
        np.testing.assert_array_equal(dropout_backward(mask, g), g * mask)


class TestForwardMode:
    def test_train_requires_seed(self):
        with pytest.raises(Exception):
            ForwardMode.train(-1)

    def test_eval_has_no_seed(self):
        m = ForwardMode.eval()
        assert not m.is_train
