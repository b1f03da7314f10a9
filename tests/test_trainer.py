"""Loss, optimizer, and training-loop behavior."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import attnens.model as model_module
import attnens.trainer as trainer_module
from attnens.data import Dataset, Sample, crop_bbox
from attnens.errors import ConfigError, NumericError, ShapeError, decode_config, encode_config
from attnens.imageops import AugmentConfig
from attnens.layers import ForwardMode
from attnens.model import (
    FREEZE_BACKBONE,
    AttentionConfig,
    ConvBlockConfig,
    ModelConfig,
    build_model,
    desk_config,
    forward_cached,
    transfer,
)
from attnens.trainer import (
    HISTORY_COLUMNS,
    EpochStats,
    TrainConfig,
    cross_entropy,
    epoch_permutation,
    evaluate,
    history_summary,
    sgd_momentum_step,
    softmax_cross_entropy_grad,
    train,
    write_history_csv,
)
from attnens.synth import SynthSpec, synth_dataset
from reference import cross_entropy_scalar, image_from_uint8


def tiny_model_config(num_classes=3):
    return ModelConfig(
        input_size=(16, 16, 3),
        backbone=(ConvBlockConfig(out_channels=6), ConvBlockConfig(out_channels=8)),
        num_classes=num_classes,
        head=(12,),
        attention=AttentionConfig(channels=8, reduction=4),
        dropout_rate=0.1,
    )


def toy_dataset(n_per_class=6, num_classes=3, size=16, seed=0):
    """Classes distinguished by which image third is bright; trivially learnable."""
    rng = np.random.default_rng(seed)
    samples = []
    third = size // num_classes
    for k in range(num_classes):
        for i in range(n_per_class):
            img = rng.random((3, size, size)).astype(np.float32) * 0.1
            img[:, :, k * third : (k + 1) * third] += 0.8
            img = np.clip(img, 0.0, 1.0)
            samples.append(Sample(id=f"c{k}_{i}", image=img, label=k, bbox=None))
    return Dataset(samples=tuple(samples), class_names=tuple(f"c{k}" for k in range(num_classes)))


def quick_cfg(epochs=3, lr=0.05, seed=0):
    return TrainConfig(
        batch_size=6,
        epochs=epochs,
        learning_rate=lr,
        momentum=0.9,
        shuffle_seed=seed,
        augment=AugmentConfig.none(),
    )


class TestCrossEntropy:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n, k = int(rng.integers(1, 9)), int(rng.integers(2, 7))
            raw = rng.random((n, k)) + 1e-3
            probs = raw / raw.sum(axis=1, keepdims=True)
            onehot = np.eye(k)[rng.integers(0, k, n)]
            np.testing.assert_allclose(
                cross_entropy(onehot, probs), cross_entropy_scalar(onehot, probs), rtol=1e-12
            )

    def test_perfect_prediction_is_zero(self):
        y = np.eye(4)
        assert cross_entropy(y, y) == pytest.approx(0.0, abs=1e-6)

    def test_fifty_fifty_is_ln2(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[0.5, 0.5]])
        assert cross_entropy(y, p) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_zero_probability_clipped_not_inf(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[0.0, 1.0]])
        loss = cross_entropy(y, p)
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(1e-7), rel=1e-9)

    def test_grad_is_probs_minus_targets_over_n(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((5, 4))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        y = np.eye(4)[rng.integers(0, 4, 5)]
        np.testing.assert_allclose(
            softmax_cross_entropy_grad(y, probs), (probs - y) / 5, rtol=1e-12
        )


class TestSgdMomentum:
    def test_two_steps_match_hand_calc(self):
        cfg = quick_cfg(lr=0.1)
        params = {"w": np.array([1.0, 2.0])}
        velocity = {"w": np.zeros(2)}
        g1 = {"w": np.array([0.5, -0.5])}
        p1, v1 = sgd_momentum_step(params, g1, velocity, cfg)
        # v = 0.9*0 - 0.1*g ; w = w + v
        np.testing.assert_allclose(v1["w"], [-0.05, 0.05])
        np.testing.assert_allclose(p1["w"], [0.95, 2.05])
        g2 = {"w": np.array([0.5, -0.5])}
        p2, v2 = sgd_momentum_step(p1, g2, v1, cfg)
        np.testing.assert_allclose(v2["w"], [-0.095, 0.095])
        np.testing.assert_allclose(p2["w"], [0.855, 2.145])

    def test_zero_momentum_is_plain_sgd(self):
        cfg = TrainConfig(
            batch_size=1, epochs=1, learning_rate=0.2, momentum=0.0, shuffle_seed=0,
            augment=AugmentConfig.none(),
        )
        params = {"w": np.array([1.0])}
        p1, _ = sgd_momentum_step(params, {"w": np.array([1.0])}, {"w": np.zeros(1)}, cfg)
        np.testing.assert_allclose(p1["w"], [0.8])

    def test_inputs_not_mutated(self):
        cfg = quick_cfg()
        params = {"w": np.array([1.0])}
        velocity = {"w": np.array([0.5])}
        sgd_momentum_step(params, {"w": np.array([1.0])}, velocity, cfg)
        assert params["w"][0] == 1.0
        assert velocity["w"][0] == 0.5

    def test_nonfinite_gradient_names_layer(self):
        cfg = quick_cfg()
        with pytest.raises(NumericError, match="fc1.weight"):
            sgd_momentum_step(
                {"fc1.weight": np.zeros(2)},
                {"fc1.weight": np.array([np.nan, 0.0])},
                {"fc1.weight": np.zeros(2)},
                cfg,
            )

    def test_key_and_shape_agreement_enforced(self):
        cfg = quick_cfg()
        with pytest.raises(Exception):
            sgd_momentum_step({"a": np.zeros(2)}, {"b": np.zeros(2)}, {"a": np.zeros(2)}, cfg)

    @pytest.mark.parametrize(
        "grads", [{}, {"a": np.zeros(2), "b": np.zeros(2)}], ids=["missing", "extra"]
    )
    def test_gradient_keys_off_the_params_are_shape_error(self, grads):
        # The trainer hands backward's dict over as it is; this check is what
        # holds backward to returning exactly the live gradients.
        with pytest.raises(ShapeError, match="same keys"):
            sgd_momentum_step({"a": np.zeros(2)}, grads, {"a": np.zeros(2)}, quick_cfg())


class TestEpochPermutation:
    def test_is_permutation(self):
        p = epoch_permutation(0, 1, 50)
        assert sorted(p.tolist()) == list(range(50))

    def test_repeatable_and_epoch_dependent(self):
        np.testing.assert_array_equal(epoch_permutation(3, 2, 20), epoch_permutation(3, 2, 20))
        assert not np.array_equal(epoch_permutation(3, 2, 20), epoch_permutation(3, 3, 20))


class TestTrainLoop:
    def test_loss_decreases_on_learnable_task(self):
        ds = toy_dataset()
        model = build_model(tiny_model_config(), seed=0)
        model, hist = train(model, ds, ds, quick_cfg(epochs=8))
        assert hist[-1].train_loss < hist[0].train_loss
        assert hist[-1].train_acc > 0.5

    def test_repeat_run_identical_weights_and_history(self):
        ds = toy_dataset()
        runs = []
        for _ in range(2):
            model = build_model(tiny_model_config(), seed=1)
            model, hist = train(model, ds, ds, quick_cfg(epochs=3))
            runs.append((model, hist))
        a, b = runs
        for name in a[0].param_names():
            np.testing.assert_array_equal(a[0].param(name).weights, b[0].param(name).weights)
        for ha, hb in zip(a[1], b[1]):
            assert (ha.train_loss, ha.train_acc, ha.test_acc) == (
                hb.train_loss, hb.train_acc, hb.test_acc,
            )

    def test_epochs_zero_returns_model_unchanged(self):
        ds = toy_dataset()
        model = build_model(tiny_model_config(), seed=2)
        cfg = TrainConfig(
            batch_size=4, epochs=0, learning_rate=0.1, momentum=0.9, shuffle_seed=0,
            augment=AugmentConfig.none(),
        )
        trained, hist = train(model, ds, ds, cfg)
        assert hist == []
        for name in model.param_names():
            np.testing.assert_array_equal(trained.param(name).weights, model.param(name).weights)

    def test_frozen_layers_do_not_move(self):
        from attnens.model import FREEZE_BACKBONE, transfer

        ds = toy_dataset()
        src = build_model(tiny_model_config(), seed=3)
        dst = transfer(src, head=(12,), num_classes=3, policy=FREEZE_BACKBONE, seed=4)
        trained, _ = train(dst, ds, ds, quick_cfg(epochs=2))
        for name in ("conv1", "conv2", "attn_reduce", "attn_expand"):
            np.testing.assert_array_equal(
                trained.param(name).weights, dst.param(name).weights
            )
        assert not np.array_equal(trained.param("logits").weights, dst.param("logits").weights)

    @pytest.mark.parametrize("head", [(12,), ()], ids=["fc1", "no_hidden_layer"])
    def test_freeze_finetune_matches_a_whole_tape_walk(self, monkeypatch, head):
        # The reference walks every step, as if nothing were frozen, and keeps
        # the live keys: the trained bits must not depend on where the walk stops.
        ds = toy_dataset()
        src = build_model(tiny_model_config(), seed=3)
        dst = transfer(src, head=head, num_classes=3, policy=FREEZE_BACKBONE, seed=4)
        dense_calls = []
        original_dense = model_module.dense_backward

        def recording_dense(cache, grad, input_grad=True):
            dense_calls.append((cache[1].name, input_grad))
            return original_dense(cache, grad, input_grad=input_grad)

        monkeypatch.setattr(model_module, "dense_backward", recording_dense)
        stopped, stopped_hist = train(dst, ds, ds, quick_cfg(epochs=2))
        assert dense_calls and set(dense_calls) == (
            {("logits", True), ("fc1", False)} if head else {("logits", False)}
        )
        assert dense_calls[-1] == ("fc1" if head else "logits", False)

        def whole_tape(model, tape, grad_logits):
            grads = model_module.backward(replace(model, frozen=frozenset()), tape, grad_logits)
            return {
                key: g for key, g in grads.items() if key.rsplit(".", 1)[0] not in model.frozen
            }

        monkeypatch.setattr(trainer_module, "backward", whole_tape)
        walked, walked_hist = train(dst, ds, ds, quick_cfg(epochs=2))
        for a, b in zip(stopped.params, walked.params):
            assert a.name == b.name
            assert a.weights.tobytes() == b.weights.tobytes(), a.name
            assert a.bias.tobytes() == b.bias.tobytes(), a.name
        assert [(h.train_loss, h.train_acc, h.test_acc) for h in stopped_hist] == [
            (h.train_loss, h.train_acc, h.test_acc) for h in walked_hist
        ]
        assert not np.array_equal(stopped.param("logits").weights, dst.param("logits").weights)

    def test_every_layer_frozen_trains_nothing(self, monkeypatch):
        ds = toy_dataset()
        model = build_model(tiny_model_config(), seed=5)
        model = replace(model, frozen=frozenset(model.param_names()))
        returned = []
        original = trainer_module.backward

        def recording(*args):
            returned.append(original(*args))
            return returned[-1]

        monkeypatch.setattr(trainer_module, "backward", recording)
        trained, hist = train(model, ds, ds, quick_cfg(epochs=2))
        assert len(hist) == 2
        assert len(returned) == 2 * 3 and all(g == {} for g in returned)
        for a, b in zip(trained.params, model.params):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_class_name_mismatch_rejected(self):
        ds = toy_dataset()
        other = Dataset(samples=ds.samples, class_names=("x", "y", "z"))
        model = build_model(tiny_model_config(), seed=0)
        with pytest.raises(ConfigError):
            train(model, ds, other, quick_cfg(epochs=1))

    def test_empty_test_set_refused_before_first_step(self, monkeypatch):
        calls = []
        original = trainer_module.forward_cached

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(trainer_module, "forward_cached", counting)
        ds = toy_dataset()
        empty = Dataset(samples=(), class_names=ds.class_names)
        model = build_model(tiny_model_config(), seed=0)
        with pytest.raises(ConfigError, match="test set is empty"):
            train(model, ds, empty, quick_cfg(epochs=1))
        assert len(calls) == 0

    def test_history_rows_sequential(self):
        ds = toy_dataset()
        model = build_model(tiny_model_config(), seed=0)
        _, hist = train(model, ds, ds, quick_cfg(epochs=4))
        assert [h.epoch for h in hist] == [1, 2, 3, 4]
        assert all(h.seconds >= 0 for h in hist)


class TestEvaluate:
    def test_matrix_shape_and_ids(self):
        ds = toy_dataset()
        model = build_model(tiny_model_config(), seed=0)
        acc, matrix = evaluate(model, ds, model_name="probe")
        assert matrix.model_name == "probe"
        assert matrix.sample_ids == ds.sample_ids()
        assert matrix.probs.shape == (len(ds), 3)
        assert 0.0 <= acc <= 1.0

    def test_eval_deterministic_across_batch_sizes(self):
        ds = toy_dataset()
        model = build_model(tiny_model_config(), seed=0)
        _, m1 = evaluate(model, ds, batch_size=4)
        _, m2 = evaluate(model, ds, batch_size=64)
        np.testing.assert_allclose(m1.probs, m2.probs, rtol=1e-6)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_refused(self, batch_size):
        ds = toy_dataset()
        model = build_model(tiny_model_config(), seed=0)
        with pytest.raises(ConfigError, match="batch_size"):
            evaluate(model, ds, batch_size=batch_size)

    def test_default_batch_keeps_the_working_set_small(self):
        # tracemalloc sees NumPy's buffers.  Over 66 desk_config images at
        # 48x48, the default batch's forward pass (the bottom conv's patch
        # matrix, its output and the ReLU output) peaks at about 7.2 MiB; a
        # batch of 64 peaks at about 28.7 MiB.
        model = build_model(desk_config(3), seed=0)
        ds = toy_dataset(n_per_class=22, size=48)
        tracemalloc.start()
        try:
            evaluate(model, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_resizes_one_batch_at_a_time(self, monkeypatch):
        # Each batch is resized just before its forward pass, so no more than
        # one batch of resized copies is alive at once.  The events are
        # counted in this process, so the batches are not split over children.
        monkeypatch.setattr(trainer_module, "_eval_processes", lambda batches: 1)
        events = []
        original_resize = trainer_module.resize_bilinear
        original_forward = trainer_module.forward_cached

        def resize(*args):
            events.append("resize")
            return original_resize(*args)

        def forward(*args):
            events.append("forward")
            return original_forward(*args)

        monkeypatch.setattr(trainer_module, "resize_bilinear", resize)
        monkeypatch.setattr(trainer_module, "forward_cached", forward)
        ds = toy_dataset(n_per_class=3, size=20)  # 9 samples, resized to 16x16
        evaluate(build_model(tiny_model_config(), seed=0), ds, batch_size=4)
        assert events == (["resize"] * 4 + ["forward"]) * 2 + ["resize", "forward"]

    @pytest.mark.parametrize("attention", [True, False])
    def test_probabilities_match_taped_forward(self, attention):
        # evaluate keeps no tape; its probabilities must be the taped pass's bits.
        model = build_model(desk_config(3, attention=attention), seed=0)
        ds = toy_dataset(n_per_class=3, size=48)  # 9 samples: batches of 4, 4 and 1
        _, matrix = evaluate(model, ds, batch_size=4)
        images = np.stack([s.image for s in ds.samples])
        taped = [
            forward_cached(model, images[start : start + 4], ForwardMode.eval())[0]
            for start in range(0, len(ds), 4)
        ]
        assert matrix.probs.tobytes() == np.concatenate(taped).astype(np.float64).tobytes()


class TestUint8Images:
    """A dataset stored as uint8 pixels trains and evaluates with the bits of
    the same dataset stored as ``image_from_uint8`` float32 images."""

    @staticmethod
    def stored_pair(image_size):
        spec = SynthSpec(num_classes=3, per_class=8, image_size=image_size, seed=3)
        pixels = synth_dataset(spec)
        assert all(s.image.dtype == np.uint8 for s in pixels.samples)
        floats = Dataset(
            tuple(
                replace(s, image=image_from_uint8(s.image.transpose(1, 2, 0)))
                for s in pixels.samples
            ),
            pixels.class_names,
        )
        return pixels, floats

    @staticmethod
    def cropped(ds):
        return Dataset(tuple(crop_bbox(s) for s in ds.samples), ds.class_names)

    @pytest.mark.parametrize(
        "image_size, crop", [(16, False), (24, False), (24, True)],
        ids=["as_stored", "resized", "cropped_and_resized"],
    )
    def test_evaluate_probabilities_are_byte_equal(self, image_size, crop):
        pixels, floats = self.stored_pair(image_size)
        if crop:
            pixels, floats = self.cropped(pixels), self.cropped(floats)
            assert all(s.image.dtype == np.uint8 for s in pixels.samples)
        model = build_model(tiny_model_config(), seed=0)
        (acc_u8, m_u8), (acc_f32, m_f32) = (evaluate(model, ds) for ds in (pixels, floats))
        assert acc_u8 == acc_f32
        assert m_u8.probs.tobytes() == m_f32.probs.tobytes()

    @pytest.mark.parametrize("image_size", [16, 24], ids=["as_stored", "resized"])
    def test_train_parameters_and_history_are_byte_equal(self, image_size):
        pixels, floats = self.stored_pair(image_size)
        cfg = replace(quick_cfg(epochs=2), augment=AugmentConfig())
        runs = [
            train(build_model(tiny_model_config(), seed=1), ds, ds, cfg, timer=lambda: 0.0)
            for ds in (pixels, floats)
        ]
        (m_u8, h_u8), (m_f32, h_f32) = runs
        for a, b in zip(m_u8.params, m_f32.params):
            assert a.weights.tobytes() == b.weights.tobytes(), a.name
            assert a.bias.tobytes() == b.bias.tobytes(), a.name
        assert h_u8 == h_f32


class TestHistorySerialization:
    def rows(self):
        return [
            EpochStats(epoch=1, train_loss=1.5, train_acc=0.25, test_acc=0.3, seconds=0.71),
            EpochStats(epoch=2, train_loss=0.9, train_acc=0.5, test_acc=0.45, seconds=0.69),
        ]

    def test_csv_layout(self, tmp_path):
        p = tmp_path / "h.csv"
        write_history_csv(self.rows(), p)
        lines = p.read_text().splitlines()
        assert lines[0] == ",".join(HISTORY_COLUMNS)
        assert lines[1].startswith("1,1.5,0.25,0.3,")
        assert len(lines) == 3

    def test_floats_round_trip_exactly(self, tmp_path):
        # repr-based serialization: parsing the CSV recovers identical doubles
        p = tmp_path / "h.csv"
        rows = [
            EpochStats(epoch=1, train_loss=1 / 3, train_acc=2 / 7, test_acc=1 / 9, seconds=0.1)
        ]
        write_history_csv(rows, p)
        cells = p.read_text().splitlines()[1].split(",")
        assert float(cells[1]) == 1 / 3
        assert float(cells[2]) == 2 / 7

    def test_summary_excludes_wall_time(self):
        s = history_summary(self.rows())
        assert s["epochs"] == 2
        assert s["final_test_acc"] == 0.45
        assert "seconds" not in s

    def test_summary_empty_history(self):
        assert history_summary([]) == {"epochs": 0}


class TestTrainConfigSerialization:
    def test_round_trip(self):
        cfg = TrainConfig(
            batch_size=16,
            epochs=5,
            learning_rate=0.02,
            momentum=0.8,
            shuffle_seed=11,
            augment=AugmentConfig(rotation_deg=10, h_flip=False, width_shift_frac=0.05,
                                  height_shift_frac=0.0),
        )
        assert decode_config(TrainConfig, encode_config(cfg), "train config") == cfg

    def test_unknown_keys_rejected(self):
        d = encode_config(quick_cfg())
        d["warmup"] = 3
        with pytest.raises(ConfigError):
            decode_config(TrainConfig, d, "train config")

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0, epochs=1, learning_rate=0.1, momentum=0.9, shuffle_seed=0,
                        augment=AugmentConfig.none())
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1, epochs=1, learning_rate=-0.1, momentum=0.9, shuffle_seed=0,
                        augment=AugmentConfig.none())
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1, epochs=1, learning_rate=0.1, momentum=1.0, shuffle_seed=0,
                        augment=AugmentConfig.none())
