"""Channel-gating module: oracle equivalence, saturation limits, gradients."""

import numpy as np
import pytest

from attnens.attention import AttentionConfig, ca_backward, ca_forward
from attnens.layers import LayerParams
from attnens.errors import ConfigError, ShapeError
from reference import attention_naive


def make_params(rng, channels, reduction=2, expand_bias=None):
    reduced = channels // reduction
    rw = rng.standard_normal((reduced, channels, 1, 1)) * 0.5
    rb = rng.standard_normal(reduced) * 0.1
    ew = rng.standard_normal((channels, reduced, 1, 1)) * 0.5
    eb = np.zeros(channels) if expand_bias is None else np.full(channels, float(expand_bias))
    return (
        LayerParams(name="attn_reduce", weights=rw, bias=rb),
        LayerParams(name="attn_expand", weights=ew, bias=eb),
    )


class TestForward:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal((2, 6, 4, 5))
            reduce, expand = make_params(rng, 6, reduction=3)
            y, cache = ca_forward(x, reduce, expand)
            y_ref, s_ref = attention_naive(
                x, reduce.weights, reduce.bias, expand.weights, expand.bias
            )
            s = cache[4]
            np.testing.assert_allclose(y, y_ref, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(s, s_ref, rtol=1e-10)

    def test_gate_shape_one_scalar_per_channel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 8, 5, 5))
        y, cache = ca_forward(x, *make_params(rng, 8))
        s = cache[4]
        assert s.shape == (3, 8)
        assert y.shape == x.shape

    def test_positive_bias_saturates_to_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 6, 6))
        reduce, expand = make_params(rng, 4, expand_bias=30.0)
        # zero the expand weights so the bias fully controls the gate
        y, cache = ca_forward(
            x,
            LayerParams(name="attn_reduce", weights=np.zeros_like(reduce.weights), bias=np.zeros_like(reduce.bias)),
            LayerParams(name="attn_expand", weights=np.zeros_like(expand.weights), bias=expand.bias),
        )
        s = cache[4]
        assert np.all(s > 1.0 - 1e-6)
        np.testing.assert_allclose(y, x, atol=1e-6)

    def test_negative_bias_annihilates(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 6, 6))
        y, cache = ca_forward(
            x,
            LayerParams(name="attn_reduce", weights=np.zeros((2, 4, 1, 1)), bias=np.zeros(2)),
            LayerParams(name="attn_expand", weights=np.zeros((4, 2, 1, 1)), bias=np.full(4, -30.0)),
        )
        s = cache[4]
        assert np.all(s < 1e-12)
        np.testing.assert_allclose(y, np.zeros_like(x), atol=1e-10)

    def test_saturated_gradient_passes_straight_through(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 4, 3, 3))
        _, cache = ca_forward(
            x,
            LayerParams(name="attn_reduce", weights=np.zeros((2, 4, 1, 1)), bias=np.zeros(2)),
            LayerParams(name="attn_expand", weights=np.zeros((4, 2, 1, 1)), bias=np.full(4, 30.0)),
        )
        g = rng.standard_normal(x.shape)
        gx = ca_backward(cache, g)[0]
        np.testing.assert_allclose(gx, g, atol=1e-10)

    def test_backward_returns_both_param_grads(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 4, 4))
        reduce, expand = make_params(rng, 4)
        _, cache = ca_forward(x, reduce, expand)
        gx, gw_reduce, gb_reduce, gw_expand, gb_expand = ca_backward(cache, np.ones_like(x))
        assert gx.shape == x.shape
        assert gw_reduce.shape == reduce.weights.shape
        assert gb_reduce.shape == reduce.bias.shape
        assert gw_expand.shape == expand.weights.shape
        assert gb_expand.shape == expand.bias.shape


class TestConfig:
    def test_reduced_width(self):
        assert AttentionConfig(channels=64, reduction=4).reduced == 16

    def test_rejects_collapse_to_zero(self):
        with pytest.raises(ConfigError):
            AttentionConfig(channels=3, reduction=4)

    @staticmethod
    def forward_on_four_channels(reduce_shape, expand_shape):
        reduce = LayerParams("attn_reduce", np.zeros(reduce_shape), np.zeros(reduce_shape[0]))
        expand = LayerParams("attn_expand", np.zeros(expand_shape), np.zeros(expand_shape[0]))
        return ca_forward(np.ones((2, 4, 3, 3)), reduce, expand)

    def test_params_reject_non_1x1_kernels(self):
        with pytest.raises(ShapeError):
            self.forward_on_four_channels((2, 4, 3, 3), (4, 2, 1, 1))
        with pytest.raises(ShapeError):
            self.forward_on_four_channels((2, 4), (4, 2))

    def test_params_reject_bottleneck_mismatch(self):
        with pytest.raises(ShapeError):
            self.forward_on_four_channels((2, 4, 1, 1), (4, 3, 1, 1))

    def test_params_reject_an_expand_off_the_channel_count(self):
        # One gate would broadcast over all four channels if nothing refused it.
        with pytest.raises(ShapeError):
            self.forward_on_four_channels((2, 4, 1, 1), (1, 2, 1, 1))
