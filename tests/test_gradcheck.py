"""Finite-difference machinery, the full gradient audit, and a check of the
assembled model's gradient."""

from dataclasses import replace

import numpy as np
import pytest

from attnens.attention import AttentionConfig
from attnens.errors import ConfigError, PrecisionError
from attnens.gradcheck import (
    AUDIT_NAMES,
    TOLERANCE,
    audit_gradients,
    grad_check,
    numeric_gradient,
    relative_error,
)
from attnens.layers import ForwardMode, LayerParams
from attnens.model import (
    FREEZE_BACKBONE,
    ConvBlockConfig,
    ModelConfig,
    backward,
    build_model,
    forward_cached,
    forward_steps,
    live_start,
    transfer,
)
from attnens.trainer import cross_entropy, softmax_cross_entropy_grad


class TestNumericGradient:
    def test_quadratic_exact(self):
        # f(x) = sum(x^2) has gradient 2x; central differences are exact for quadratics
        x = np.array([1.0, -2.0, 0.5])
        g = numeric_gradient(lambda v: float((v**2).sum()), x)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-9)

    def test_trig(self):
        x = np.linspace(0.1, 1.5, 7)
        g = numeric_gradient(lambda v: float(np.sin(v).sum()), x)
        np.testing.assert_allclose(g, np.cos(x), rtol=1e-7)

    def test_rejects_float32(self):
        with pytest.raises(PrecisionError):
            numeric_gradient(lambda v: float(v.sum()), np.zeros(3, dtype=np.float32))

    def test_relative_error_conventions(self):
        assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
        # denominator is floored at 1, so small absolute differences stay small
        assert relative_error(np.array([1e-8]), np.array([0.0])) == pytest.approx(1e-8)

    def test_grad_check_accepts_matching(self):
        x = np.array([0.3, -0.7, 1.2])
        err = grad_check(lambda v: float((v**3).sum()), x, 3 * x**2)
        assert err < TOLERANCE

    def test_grad_check_flags_wrong_gradient(self):
        x = np.array([0.3, -0.7, 1.2])
        err = grad_check(lambda v: float((v**3).sum()), x, 2 * x**2)
        assert err > TOLERANCE


class TestAudit:
    def test_all_rows_pass_default_seed(self):
        rows = audit_gradients(seed=0)
        assert tuple(r.name for r in rows) == AUDIT_NAMES
        for row in rows:
            assert row.passed, f"{row.name}: {row.max_rel_err}"

    def test_audit_covers_every_block_kind(self):
        names = set(AUDIT_NAMES)
        for expected in (
            "conv2d",
            "dense",
            "relu",
            "sigmoid",
            "gap",
            "dropout",
            "maxpool",
            "channel_attention",
            "softmax_cross_entropy",
        ):
            assert expected in names

    def test_audit_stable_across_repeat(self):
        a = audit_gradients(seed=3)
        b = audit_gradients(seed=3)
        for ra, rb in zip(a, b):
            assert ra.max_rel_err == rb.max_rel_err

    def test_negative_seed_is_config_error(self):
        # SeedSequence would refuse it with a bare ValueError.
        with pytest.raises(ConfigError, match="seed"):
            audit_gradients(seed=-1)

    def test_corrupt_hook_fails_named_row(self):
        rows = audit_gradients(seed=0, corrupt="dense")
        by_name = {r.name: r for r in rows}
        assert not by_name["dense"].passed
        assert by_name["conv2d"].passed


class TestAssembledModel:
    """``forward_cached`` + ``backward`` over the whole network against
    central differences of the mean cross-entropy, for every layer.

    The layer rows above check each kind alone; this checks their
    composition: ``backward``'s stop rule, the pairing of each step's
    gradients with its layer names, the fused ReLU-and-pool backward, the
    attention block's gradient order, and train-mode dropout drawing the
    same masks in the forward and the backward.
    """

    @staticmethod
    def problem(seed):
        """A float64 copy of a tiny model (biases offset from zero), a batch
        of 4, its one-hot targets and a train mode with dropout 0.3."""
        config = ModelConfig(
            input_size=(8, 8, 3),
            backbone=(ConvBlockConfig(4), ConvBlockConfig(8)),
            num_classes=3,
            head=(6,),
            attention=AttentionConfig(8, reduction=2),
            dropout_rate=0.3,
        )
        model = build_model(config, seed)
        model = model.with_params(
            tuple(
                LayerParams(p.name, p.weights.astype(np.float64), p.bias.astype(np.float64) + 0.01)
                for p in model.params
            )
        )
        rng = np.random.default_rng(seed)
        x = rng.random((4, 3, 8, 8))
        y = np.eye(3)[rng.integers(0, 3, size=4)]
        return model, x, y, ForwardMode.train(dropout_seed=1000 + seed)

    @staticmethod
    def frozen(model, frozen):
        """``model`` with nothing, the backbone (as ``FREEZE_BACKBONE``
        freezes it) or the backbone and ``fc1`` frozen."""
        if frozen == "nothing_frozen":
            return model
        backbone = transfer(model, model.config, FREEZE_BACKBONE, 0).frozen
        return replace(model, frozen=backbone | ({"fc1"} if frozen == "fc1_frozen" else set()))

    @staticmethod
    def numeric(model, x, y, mode, key):
        """Central-difference gradient of the loss w.r.t. '<layer>.weight|bias'."""
        name, part = key.rsplit(".", 1)
        layer = model.param(name)

        def loss(v):
            changed = replace(layer, **{"weights" if part == "weight" else "bias": v})
            params = tuple(changed if p.name == name else p for p in model.params)
            probs, _ = forward_cached(model.with_params(params), x, mode, False)
            return cross_entropy(y, probs)

        return numeric_gradient(loss, layer.weights if part == "weight" else layer.bias)

    def check(self, model, x, y, mode, grads):
        live = [n for n in model.param_names() if n not in model.frozen]
        assert set(grads) == {f"{n}.{part}" for n in live for part in ("weight", "bias")}
        for key, g in grads.items():
            err = relative_error(g, self.numeric(model, x, y, mode, key))
            assert err < TOLERANCE, f"{key}: {err}"

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("frozen", ["nothing_frozen", "freeze_backbone"])
    def test_whole_tape(self, seed, frozen):
        model, x, y, mode = self.problem(seed)
        model = self.frozen(model, frozen)
        probs, tape = forward_cached(model, x, mode)
        grads = backward(model, tape, softmax_cross_entropy_grad(y, probs))
        self.check(model, x, y, mode, grads)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("frozen", ["freeze_backbone", "fc1_frozen"])
    def test_prefix_then_head(self, seed, frozen):
        # The path a frozen-backbone finetune takes: the frozen steps with no
        # tape, then a taped forward from the lowest live step.
        model, x, y, mode = self.problem(seed)
        model = self.frozen(model, frozen)
        split = live_start(model)
        below, _ = forward_steps(model, x, mode, 0, split, False)
        probs, tape = forward_cached(model, below, mode, True, split)
        grads = backward(model, tape, softmax_cross_entropy_grad(y, probs))
        self.check(model, x, y, mode, grads)
        whole_probs, whole_tape = forward_cached(model, x, mode)
        whole = backward(model, whole_tape, softmax_cross_entropy_grad(y, whole_probs))
        assert {k: g.tobytes() for k, g in grads.items()} == {
            k: g.tobytes() for k, g in whole.items()
        }
