"""Model assembly, initialization, forward contract, and transfer surgery."""

import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

import attnens.model as model_module
from attnens.data import Dataset, Sample
from attnens.errors import (
    ConfigError,
    ShapeError,
    TransferError,
    decode_config,
    encode_config,
)
from attnens.layers import ForwardMode
from attnens.model import (
    FINETUNE_ALL,
    FREEZE_BACKBONE,
    AttentionConfig,
    ConvBlockConfig,
    ModelConfig,
    backward,
    build_model,
    desk_config,
    forward,
    forward_cached,
    forward_steps,
    live_start,
    paper_config,
    transfer,
)
from attnens.trainer import evaluate, softmax_cross_entropy_grad


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
        again = decode_config(ModelConfig, encode_config(cfg), "model config")
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        d = encode_config(tiny_config())
        d["bogus"] = 1
        with pytest.raises(ConfigError):
            decode_config(ModelConfig, d, "model config")

    def test_from_dict_accepts_int_backbone_shorthand(self):
        d = encode_config(tiny_config())
        d["backbone"] = [8, 12]
        cfg = decode_config(ModelConfig, d, "model config")
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
        config = replace(source.config, head=(128,), num_classes=5)
        model = transfer(source, config, FREEZE_BACKBONE, 1)
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
        # At a batch of 64, no array a conv step keeps on the tape
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

    def test_conv_caches_hold_their_input_itself(self, monkeypatch):
        # At a batch of 64, each conv step caches a reference to
        # the array it received, not a padded copy, and no larger array.
        received = []
        original = model_module.conv2d_forward

        def recording(x, p):
            received.append(x)
            return original(x, p)

        monkeypatch.setattr(model_module, "conv2d_forward", recording)
        config = desk_config(5)
        h, w, c = config.input_size
        x = np.random.default_rng(6).random((64, c, h, w)).astype(np.float32)
        _, tape = forward_cached(build_model(config, seed=0), x, ForwardMode.eval())
        caches = [cache for kind, _, cache in tape if kind == "conv"]
        assert len(caches) == len(received) == len(config.backbone)
        for cache, step_input in zip(caches, received):
            arrays = [a for a in cache if isinstance(a, np.ndarray)]
            assert any(a is step_input for a in arrays)
            assert max(a.nbytes for a in arrays) <= step_input.nbytes

    @pytest.mark.parametrize(
        "run, alive_expected",
        [
            (lambda model, x: forward_cached(model, x, ForwardMode.eval()), [0, 1, 2]),
            (lambda model, x: forward_cached(model, x, ForwardMode.eval(), False), [0, 0, 0]),
            (lambda model, x: forward(model, x), [0, 0, 0]),
            (
                lambda model, x: evaluate(
                    model, Dataset(tuple(Sample(f"s{i}", img, 0) for i, img in enumerate(x)),
                                   tuple(f"c{k}" for k in range(5))),
                ),
                [0, 0, 0],
            ),
        ],
        ids=["taped", "untaped", "forward", "evaluate"],
    )
    def test_untaped_pass_frees_each_cache_before_the_next_step(
        self, monkeypatch, run, alive_expected
    ):
        # Counts the conv outputs still alive as each conv starts.  A pooled
        # block's conv output is held only by that block's relu_maxpool
        # cache, so it outlives its step only while a tape keeps the cache.
        conv_outputs, alive = [], []
        original_conv = model_module.conv2d_forward

        def counting_conv(x, p):
            alive.append(sum(ref() is not None for ref in conv_outputs))
            y, cache = original_conv(x, p)
            conv_outputs.append(weakref.ref(y))
            return y, cache

        monkeypatch.setattr(model_module, "conv2d_forward", counting_conv)
        config = desk_config(5)
        h, w, c = config.input_size
        x = np.random.default_rng(8).random((4, c, h, w)).astype(np.float32)
        run(build_model(config, seed=0), x)
        assert alive == alive_expected

    def test_pooled_blocks_apply_relu_to_quarter_size_maps(self, monkeypatch):
        # A pooled block pools its conv output first, so its ReLU runs on the
        # pooled map; a frozen-backbone step's backward, which stops in the
        # head, runs no ReLU of its own.  The last ReLU is the head's, on fc1.
        conv_shapes, relu_shapes = [], []
        original_conv, original_relu = model_module.conv2d_forward, model_module.relu_forward

        def recording_conv(x, p):
            y, cache = original_conv(x, p)
            conv_shapes.append(y.shape)
            return y, cache

        def recording_relu(x):
            relu_shapes.append(x.shape)
            return original_relu(x)

        monkeypatch.setattr(model_module, "conv2d_forward", recording_conv)
        monkeypatch.setattr(model_module, "relu_forward", recording_relu)
        config = replace(
            tiny_config(num_classes=4),
            backbone=(ConvBlockConfig(out_channels=8), ConvBlockConfig(12, pool=False)),
        )
        src = build_model(config, seed=0)
        model = transfer(src, replace(src.config, head=(16,), num_classes=4), FREEZE_BACKBONE, 1)
        x = np.random.default_rng(4).random((2, 3, 16, 16)).astype(np.float32)
        forward(model, x)
        probs, tape = forward_cached(model, x, ForwardMode.train(0))
        onehot = np.eye(4, dtype=np.float32)[[0, 2]]
        backward(model, tape, softmax_cross_entropy_grad(onehot, probs))
        assert conv_shapes == [(2, 8, 16, 16), (2, 12, 8, 8)] * 2
        assert relu_shapes == [(2, 8, 8, 8), (2, 12, 8, 8), (2, 16)] * 2

    def test_untaped_pass_returns_no_tape_and_the_same_bits(self):
        model = build_model(tiny_config(), seed=0)
        x = np.random.default_rng(9).random((3, 3, 16, 16)).astype(np.float32)
        taped, tape = forward_cached(model, x, ForwardMode.eval())
        untaped, none = forward_cached(model, x, ForwardMode.eval(), False)
        assert len(tape) == 10 and none is None
        assert untaped.tobytes() == taped.tobytes()

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

    def test_frozen_backbone_backward_runs_only_the_head(self, monkeypatch):
        # The walk stops at fc1, the lowest live layer, which skips its input
        # gradient; no trunk step below it runs its backward.
        calls = []
        for fn in ("conv2d_backward", "maxpool2d_backward", "ca_backward", "gap_backward"):
            original = getattr(model_module, fn)

            def counting(*args, _fn=fn, _original=original, **kwargs):
                calls.append(_fn)
                return _original(*args, **kwargs)

            monkeypatch.setattr(model_module, fn, counting)
        original_dense = model_module.dense_backward

        def recording_dense(cache, grad, input_grad=True):
            calls.append(("dense_backward", cache[1].name, input_grad))
            return original_dense(cache, grad, input_grad=input_grad)

        monkeypatch.setattr(model_module, "dense_backward", recording_dense)
        src = build_model(tiny_config(num_classes=4), seed=0)
        model = transfer(src, replace(src.config, head=(16,), num_classes=4), FREEZE_BACKBONE, 1)
        x = np.random.default_rng(4).random((2, 3, 16, 16)).astype(np.float32)
        probs, tape = forward_cached(model, x, ForwardMode.train(0))
        onehot = np.eye(4, dtype=np.float32)[[0, 2]]
        grads = backward(model, tape, softmax_cross_entropy_grad(onehot, probs))
        assert calls == [("dense_backward", "logits", True), ("dense_backward", "fc1", False)]
        assert set(grads) == {"fc1.weight", "fc1.bias", "logits.weight", "logits.bias"}

    def test_every_step_backward_returns_input_then_planned_layer_grads(self):
        # The tape convention: a step's backward returns the input gradient,
        # then a weight and a bias gradient per parameter layer, in order.
        config = desk_config(num_classes=5)
        model = build_model(config, seed=0)
        x = np.random.default_rng(5).random((2, 3, 48, 48)).astype(np.float32)
        probs, tape = forward_cached(model, x, ForwardMode.train(0))
        steps = list(model_module._steps(config))
        assert [kind for kind, _ in steps] == [kind for kind, _, _ in tape]
        grad = softmax_cross_entropy_grad(np.eye(5, dtype=np.float32)[[0, 3]], probs)
        layer_grads = []
        for (kind, layers), (_, _, cache) in zip(reversed(steps), reversed(tape)):
            grad, *step_grads = model_module._KINDS[kind][1](cache, grad)
            assert len(step_grads) == 2 * len(layers), kind
            layer_grads = step_grads + layer_grads
        assert grad.shape == x.shape
        planned = model_module._layer_plan(config)
        assert "attn_reduce" in [layer.name for layer in planned]
        shapes = [shape for layer in planned for shape in (layer.weight_shape, layer.bias_shape)]
        assert [g.shape for g in layer_grads] == shapes

    @pytest.mark.parametrize("attention", [True, False])
    def test_every_frozen_subset_returns_the_live_grads_bit_for_bit(self, attention):
        model = build_model(tiny_config(num_classes=4, attention=attention), seed=0)
        x = np.random.default_rng(8).random((3, 3, 16, 16)).astype(np.float32)
        probs, tape = forward_cached(model, x, ForwardMode.train(0))
        grad_logits = softmax_cross_entropy_grad(np.eye(4, dtype=np.float32)[[0, 2, 3]], probs)
        whole = backward(model, tape, grad_logits)
        names = model.param_names()
        for mask in range(2 ** len(names)):
            frozen = frozenset(n for i, n in enumerate(names) if mask >> i & 1)
            grads = backward(replace(model, frozen=frozen), tape, grad_logits)
            live = {f"{n}.{part}" for n in names if n not in frozen for part in ("weight", "bias")}
            assert set(grads) == live, sorted(frozen)
            for key, g in grads.items():
                assert (g.dtype, g.shape) == (whole[key].dtype, whole[key].shape)
                assert g.tobytes() == whole[key].tobytes(), (sorted(frozen), key)


class TestStepRange:
    """``forward_steps`` over a range of ``_steps``, and where the live steps start."""

    @staticmethod
    def head_frozen(model, *names):
        return replace(model, frozen=model.frozen | frozenset(names))

    def test_live_start(self):
        src = build_model(tiny_config(), seed=0)
        kinds = [kind for kind, _ in model_module._steps(src.config)]
        frozen = transfer(src, src.config, FREEZE_BACKBONE, 1)
        assert live_start(src) == 0
        assert kinds[: live_start(frozen)] == [
            "conv", "relu_maxpool", "conv", "relu_maxpool", "attention", "gap",
        ]
        # fc1 frozen too: the prefix ends in the head's dropout, logits is live.
        assert kinds[live_start(self.head_frozen(frozen, "fc1")) - 1] == "dropout"
        assert live_start(self.head_frozen(frozen, "fc1", "logits")) == len(kinds)
        # A live layer above a frozen one: the lowest live step counts.
        assert live_start(self.head_frozen(src, "conv1", "fc1")) == 2

    @pytest.mark.parametrize("mode", [ForwardMode.train(3), ForwardMode.eval()], ids=["train", "eval"])
    def test_a_split_at_every_step_keeps_the_bits_of_one_pass(self, mode):
        # Each dropout draws the mask of a whole pass wherever the split falls,
        # between the two hidden layers' dropouts too.
        model = build_model(replace(tiny_config(), head=(16, 8)), seed=0)
        x = np.random.default_rng(7).random((5, 3, 16, 16)).astype(np.float32)
        whole, whole_tape = forward_cached(model, x, mode)
        for split in range(len(whole_tape) + 1):
            below, none = forward_steps(model, x, mode, 0, split, False)
            probs, tape = forward_cached(model, below, mode, True, split)
            assert none is None
            assert probs.tobytes() == whole.tobytes(), split
            assert [e[:2] for e in tape] == [e[:2] for e in whole_tape[split:]]

    def test_a_range_from_the_bottom_checks_the_batch_shape(self):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ShapeError, match="batch shape"):
            forward_steps(model, np.zeros((2, 3, 8, 8), np.float32), ForwardMode.eval(), 0, 2)


class TestTransfer:
    def test_freeze_backbone_copies_and_freezes(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        dst = transfer(src, replace(src.config, head=(16,), num_classes=6), FREEZE_BACKBONE, 1)
        assert dst.config.num_classes == 6
        for name in ("conv1", "conv2", "attn_reduce", "attn_expand"):
            np.testing.assert_array_equal(dst.param(name).weights, src.param(name).weights)
            assert name in dst.frozen
        assert "fc1" not in dst.frozen
        assert "logits" not in dst.frozen

    def test_finetune_all_nothing_frozen(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        dst = transfer(src, replace(src.config, head=(16,), num_classes=6), FINETUNE_ALL, 1)
        assert not dst.frozen

    def test_head_reinitialized(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        dst = transfer(src, replace(src.config, head=(16,), num_classes=4), FINETUNE_ALL, 9)
        assert not np.array_equal(dst.param("fc1").weights, src.param("fc1").weights)

    def test_head_seed_reproducible(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        a = transfer(src, replace(src.config, head=(16,), num_classes=6), FINETUNE_ALL, 5)
        b = transfer(src, replace(src.config, head=(16,), num_classes=6), FINETUNE_ALL, 5)
        for name in a.param_names():
            np.testing.assert_array_equal(a.param(name).weights, b.param(name).weights)

    def test_rejects_unknown_policy(self):
        src = build_model(tiny_config(), seed=0)
        with pytest.raises(ConfigError):
            transfer(src, replace(src.config, head=(16,), num_classes=3), "warm", 0)

    def test_input_size_change_requires_compatible_backbone(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        config = replace(src.config, head=(16,), num_classes=4, input_size=(32, 32, 3))
        dst = transfer(src, config, FINETUNE_ALL, 0)
        x = np.random.default_rng(0).random((1, 3, 32, 32)).astype(np.float32)
        assert forward(dst, x).shape == (1, 4)

    # A changed pool flag keeps every copied layer's shape, so only the restate
    # rule can refuse it; either refusal names the part that differs.
    @pytest.mark.parametrize("part,change", [
        ("backbone", lambda c: replace(
            c, backbone=(c.backbone[0], replace(c.backbone[1], pool=False)))),
        ("attention", lambda c: replace(c, attention=replace(c.attention, reduction=2))),
    ], ids=["one_pool_flag", "attention_reduction"])
    def test_config_must_restate_the_source(self, part, change):
        src = build_model(tiny_config(num_classes=4), seed=0)
        with pytest.raises(TransferError, match=part):
            transfer(src, change(src.config), FINETUNE_ALL, 0)

    def test_input_channel_change_reaches_the_layer_shape_check(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        with pytest.raises(TransferError, match="conv1"):
            transfer(src, replace(src.config, input_size=(16, 16, 1)), FINETUNE_ALL, 0)

    def test_hand_built_source_missing_a_layer_is_refused(self):
        src = build_model(tiny_config(num_classes=4), seed=0)
        partial = src.with_params(tuple(p for p in src.params if p.name != "attn_expand"))
        with pytest.raises(TransferError, match="attn_expand"):
            transfer(partial, src.config, FREEZE_BACKBONE, 0)
