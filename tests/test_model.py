"""Model assembly, initialization, forward contract, and transfer surgery."""

import hashlib

import numpy as np
import pytest

import attnens.model as model_module
from attnens.errors import ConfigError, ShapeError, TransferError
from attnens.layers import ForwardMode
from attnens.model import (
    FINETUNE_ALL,
    FREEZE_BACKBONE,
    AttentionConfig,
    ConvBlockConfig,
    ModelConfig,
    backward,
    build_model,
    config_from_dict,
    config_to_dict,
    desk_config,
    forward,
    forward_cached,
    paper_config,
    transfer,
)
from attnens.trainer import softmax_cross_entropy_grad


def tiny_config(num_classes=4, attention=True):
    return ModelConfig(
        input_size=(16, 16, 3),
        backbone=(ConvBlockConfig(out_channels=8), ConvBlockConfig(out_channels=12)),
        num_classes=num_classes,
        head=(16,),
        attention=AttentionConfig(channels=12, reduction=4) if attention else None,
        dropout_rate=0.2,
    )


class TestConfigValidation:
    def test_desk_config_shape(self):
        cfg = desk_config(5)
        assert cfg.input_size == (48, 48, 3)
        assert cfg.num_classes == 5
        assert cfg.attention is not None

    def test_paper_scale_config(self):
        cfg = paper_config(40)
        assert cfg.input_size == (512, 512, 3)
        assert cfg.num_classes == 40

    def test_attention_channels_must_match_last_block(self):
        with pytest.raises(ConfigError):
            ModelConfig(
                input_size=(16, 16, 3),
                backbone=(ConvBlockConfig(out_channels=8),),
                num_classes=3,
                head=(8,),
                attention=AttentionConfig(channels=16, reduction=4),
                dropout_rate=0.2,
            )

    def test_pooling_needs_even_spatial_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(
                input_size=(18, 18, 3),
                backbone=(
                    ConvBlockConfig(out_channels=4),
                    ConvBlockConfig(out_channels=4),
                    ConvBlockConfig(out_channels=4),
                ),
                num_classes=3,
                head=(8,),
                attention=None,
                dropout_rate=0.0,
            )  # 18 -> 9, second pool impossible

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            desk_config(3).__class__(**{**config_kwargs(), "dropout_rate": 1.0})

    def test_round_trip_dict(self):
        cfg = tiny_config()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        d = config_to_dict(tiny_config())
        d["bogus"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_from_dict_accepts_int_backbone_shorthand(self):
        d = config_to_dict(tiny_config())
        d["backbone"] = [8, 12]
        cfg = config_from_dict(d)
        assert cfg.backbone == tiny_config().backbone


def config_kwargs():
    cfg = desk_config(3)
    return {
        "input_size": cfg.input_size,
        "backbone": cfg.backbone,
        "num_classes": cfg.num_classes,
        "head": cfg.head,
        "attention": cfg.attention,
    }


class TestBuild:
    def test_layer_names_in_plan_order(self):
        model = build_model(tiny_config(), seed=0)
        assert model.param_names() == ("conv1", "conv2", "attn_reduce", "attn_expand", "fc1", "logits")

    def test_without_attention_plan(self):
        model = build_model(tiny_config(attention=False), seed=0)
        assert model.param_names() == ("conv1", "conv2", "fc1", "logits")

    def test_biases_start_at_zero(self):
        model = build_model(tiny_config(), seed=1)
        for name in model.param_names():
            np.testing.assert_array_equal(model.param(name).bias, 0.0)

    def test_weights_within_init_bounds(self):
        model = build_model(tiny_config(), seed=2)
        conv1 = model.param("conv1").weights
        fan_in = 3 * 3 * 3
        limit = np.sqrt(6.0 / fan_in)
        assert np.all(np.abs(conv1) <= limit)
        logits = model.param("logits").weights
        xavier = np.sqrt(6.0 / (logits.shape[0] + logits.shape[1]))
        assert np.all(np.abs(logits) <= xavier)

    def test_same_seed_same_weights(self):
        a = build_model(tiny_config(), seed=7)
        b = build_model(tiny_config(), seed=7)
        for name in a.param_names():
            np.testing.assert_array_equal(a.param(name).weights, b.param(name).weights)

    def test_different_seed_different_weights(self):
        a = build_model(tiny_config(), seed=7)
        b = build_model(tiny_config(), seed=8)
        assert not np.array_equal(a.param("conv1").weights, b.param("conv1").weights)

    def test_params_are_float32(self):
        model = build_model(tiny_config(), seed=0)
        for name in model.param_names():
            assert model.param(name).weights.dtype == np.float32


def params_digest(model):
    h = hashlib.sha256()
    for p in model.params:
        h.update(p.name.encode("utf-8"))
        h.update(p.weights.tobytes())
        h.update(p.bias.tobytes())
    return h.hexdigest()


class TestInitDigest:
    # Pinned bits of the initial weights: a change to the layer plan, the
    # fan-in/fan-out rule or the draw order shows up here, where comparing
    # two builds from the same code cannot see it.
    def test_desk_config_initial_weights(self):
        model = build_model(desk_config(6), seed=0)
        assert params_digest(model) == (
            "62fa08b38d852c76a6a4fa2eb49e5e4a09fa58a7f7387b4c39b04be78c7c9eb0"
        )

    def test_transferred_head_initial_weights(self):
        source = build_model(desk_config(6), seed=0)
        model = transfer(source, head=(128,), num_classes=5, policy=FREEZE_BACKBONE, seed=1)
        assert params_digest(model) == (
            "320ca670f8f192f96199b9003e258fb8b2d7b083bee56ed68039ebda65271165"
        )


class TestForward:
    def test_output_is_row_stochastic(self):
        model = build_model(tiny_config(num_classes=5), seed=0)
        x = np.random.default_rng(0).random((3, 3, 16, 16)).astype(np.float32)
        probs = forward(model, x)
        assert probs.shape == (3, 5)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(3), rtol=1e-5)

    def test_fresh_model_rows_near_uniform(self):
        # zero-bias logits at init scale keep every class within [1/(4K), 4/K]
        model = build_model(tiny_config(num_classes=5), seed=3)
        x = np.random.default_rng(1).random((8, 3, 16, 16)).astype(np.float32)
        probs = forward(model, x)
        k = 5
        assert probs.min() >= 1.0 / (4 * k)
        assert probs.max() <= 4.0 / k

    def test_eval_forward_deterministic(self):
        model = build_model(tiny_config(), seed=0)
        x = np.random.default_rng(2).random((2, 3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(forward(model, x), forward(model, x))

    def test_train_mode_dropout_changes_output(self):
        model = build_model(tiny_config(), seed=0)
        x = np.random.default_rng(3).random((2, 3, 16, 16)).astype(np.float32)
        a, _ = forward_cached(model, x, ForwardMode.train(1))
        b, _ = forward_cached(model, x, ForwardMode.train(2))
        assert not np.array_equal(a, b)

    def test_rejects_wrong_batch_shape(self):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            forward(model, np.zeros((2, 3, 8, 8), dtype=np.float32))

    def test_layer_functions_resolve_at_call_time(self, monkeypatch):
        # Wrappers installed on attnens.model's attributes must see every call.
        calls = {}
        for fn in ("conv2d_backward", "ca_forward"):
            original = getattr(model_module, fn)

            def counting(*args, _fn=fn, _original=original, **kwargs):
                calls[_fn] = calls.get(_fn, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(model_module, fn, counting)
        model = build_model(tiny_config(num_classes=4), seed=0)
        x = np.random.default_rng(4).random((2, 3, 16, 16)).astype(np.float32)
        probs, tape = forward_cached(model, x, ForwardMode.eval())
        assert calls == {"ca_forward": 1}
        onehot = np.eye(4, dtype=np.float32)[[0, 2]]
        backward(model, tape, softmax_cross_entropy_grad(onehot, probs))
        assert calls == {"ca_forward": 1, "conv2d_backward": 2}

    def test_bottom_conv_skips_image_gradient(self, monkeypatch):
        seen = []
        original = model_module.conv2d_backward

        def recording(cache, grad, input_grad=True):
            seen.append(input_grad)
            return original(cache, grad, input_grad=input_grad)

        monkeypatch.setattr(model_module, "conv2d_backward", recording)
        model = build_model(tiny_config(num_classes=4), seed=0)
        x = np.random.default_rng(4).random((2, 3, 16, 16)).astype(np.float32)
        probs, tape = forward_cached(model, x, ForwardMode.train(0))
        onehot = np.eye(4, dtype=np.float32)[[0, 2]]
        backward(model, tape, softmax_cross_entropy_grad(onehot, probs))
        assert seen == [True, False]

    def test_pooled_blocks_fold_relu_into_pool_backward(self, monkeypatch):
        # Each pooled block's ReLU mask is applied inside its pool step, so a
        # desk_config backward runs relu_backward for the head's ReLU only.
        calls = []
        original = model_module.relu_backward

        def counting(cache, grad):
            calls.append(grad.shape)
            return original(cache, grad)

        monkeypatch.setattr(model_module, "relu_backward", counting)
        config = desk_config(5)
        model = build_model(config, seed=0)
        h, w, c = config.input_size
        x = np.random.default_rng(7).random((2, c, h, w)).astype(np.float32)
        probs, tape = forward_cached(model, x, ForwardMode.train(0))
        onehot = np.eye(5, dtype=np.float32)[[1, 3]]
        backward(model, tape, softmax_cross_entropy_grad(onehot, probs))
        assert calls == [(2, config.head[0])]

    def test_conv_caches_hold_no_patch_matrix(self):
        # At evaluate()'s batch of 64, no array a conv step keeps on the tape
        # may be larger than its padded input; the im2col patch matrix is
        # kernel*kernel times that.
        config = desk_config(5)
        model = build_model(config, seed=0)
        h, w, c = config.input_size
        x = np.random.default_rng(6).random((64, c, h, w)).astype(np.float32)
        _, tape = forward_cached(model, x, ForwardMode.eval())
        caches = [cache for kind, _, cache in tape if kind == "conv"]
        assert len(caches) == len(config.backbone)
        for block, cache in zip(config.backbone, caches):
            k = block.kernel
            padded_bytes = 64 * c * (h + k - 1) * (w + k - 1) * x.itemsize
            arrays = [a for a in cache if isinstance(a, np.ndarray)]
            assert arrays
            assert max(a.nbytes for a in arrays) <= padded_bytes
            c = block.out_channels
            if block.pool:
                h, w = h // 2, w // 2

    def test_backward_emits_grad_per_live_param(self):
        model = build_model(tiny_config(num_classes=4), seed=0)
        x = np.random.default_rng(4).random((2, 3, 16, 16)).astype(np.float32)
        probs, tape = forward_cached(model, x, ForwardMode.train(0))
        onehot = np.eye(4, dtype=np.float32)[[0, 2]]
        grads = backward(model, tape, softmax_cross_entropy_grad(onehot, probs))
        expected = {f"{n}.weight" for n in model.param_names()} | {
            f"{n}.bias" for n in model.param_names()
        }
        assert set(grads) == expected


class TestTransfer:
    def test_freeze_backbone_copies_and_freezes(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        dst = transfer(src, head=(16,), num_classes=6, policy=FREEZE_BACKBONE, seed=1)
        assert dst.config.num_classes == 6
        for name in ("conv1", "conv2", "attn_reduce", "attn_expand"):
            np.testing.assert_array_equal(dst.param(name).weights, src.param(name).weights)
            assert name in dst.frozen
        assert "fc1" not in dst.frozen
        assert "logits" not in dst.frozen

    def test_finetune_all_nothing_frozen(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        dst = transfer(src, head=(16,), num_classes=6, policy=FINETUNE_ALL, seed=1)
        assert not dst.frozen

    def test_head_reinitialized(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        dst = transfer(src, head=(16,), num_classes=4, policy=FINETUNE_ALL, seed=9)
        assert not np.array_equal(dst.param("fc1").weights, src.param("fc1").weights)

    def test_head_seed_reproducible(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        a = transfer(src, head=(16,), num_classes=6, policy=FINETUNE_ALL, seed=5)
        b = transfer(src, head=(16,), num_classes=6, policy=FINETUNE_ALL, seed=5)
        for name in a.param_names():
            np.testing.assert_array_equal(a.param(name).weights, b.param(name).weights)

    def test_rejects_unknown_policy(self):
        src = build_model(tiny_config(), seed=0)
        with pytest.raises(ConfigError):
            transfer(src, head=(16,), num_classes=3, policy="warm", seed=0)

    def test_input_size_change_requires_compatible_backbone(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        dst = transfer(
            src, head=(16,), num_classes=4, policy=FINETUNE_ALL, seed=0, input_size=(32, 32, 3)
        )
        x = np.random.default_rng(0).random((1, 3, 32, 32)).astype(np.float32)
        assert forward(dst, x).shape == (1, 4)
