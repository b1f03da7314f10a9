"""Model assembly: configuration, initialization, forward/backward, transfer.

A model is a stack of conv blocks (conv -> ReLU -> optional 2x2 max pool),
an optional channel-gating block on the final feature map, global average
pooling, and a fully connected head (hidden layers with ReLU + dropout,
then a logits layer feeding softmax).

``_steps(config)`` spells that order out once, as (kind, parameter layers)
steps.  The parameter plan is its flattened layers; ``forward_cached`` runs
each step through the ``_KINDS`` table and records a (kind, layer names,
cache) tape entry; ``backward`` walks the tape in reverse through the same
table, except that the bottom conv computes weight gradients only.  A pooled
block's ReLU and pool form one ``relu_maxpool`` step: its backward applies
the ReLU mask ``y > 0`` of the pooled output ``y`` to the quarter-size
upstream gradient and then routes it through the pool, which gives the bits
of relu_backward after maxpool2d_backward without a full-size mask pass.

Initialization is a pure function of (config, seed): layers feeding a ReLU
draw He-uniform weights, layers feeding sigmoid or softmax draw
Xavier-uniform weights, and all biases start at zero.  Parameters live in
float32; forward passes accept float32 or float64 inputs and follow the
parameter precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .attention import AttentionConfig, AttentionParams, ca_backward, ca_forward
from .errors import ConfigError, ShapeError, TransferError, decode_config, encode_config
from .layers import (
    ForwardMode,
    LayerParams,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    gap_backward,
    gap_forward,
    maxpool2d_backward,
    maxpool2d_forward,
    relu_backward,
    relu_forward,
    softmax_forward,
)
from .seeding import derive_seed

FREEZE_BACKBONE = "freeze_backbone"
FINETUNE_ALL = "finetune_all"
POLICIES = (FREEZE_BACKBONE, FINETUNE_ALL)


@dataclass(frozen=True)
class ConvBlockConfig:
    """One backbone stage: 'same' conv at stride 1, ReLU, optional 2x2 pool."""

    out_channels: int
    kernel: int = 3
    pool: bool = True

    def __post_init__(self):
        if self.out_channels < 1:
            raise ConfigError(f"out_channels must be >= 1, got {self.out_channels}")
        if self.kernel < 1:
            raise ConfigError(f"kernel must be >= 1, got {self.kernel}")


@dataclass(frozen=True)
class ModelConfig:
    """Complete architecture description.

    input_size is (height, width, channels).  attention=None disables the
    gating block; when present, its channel count must equal the final
    backbone stage's out_channels.
    """

    input_size: tuple[int, int, int]
    backbone: tuple[ConvBlockConfig, ...]
    num_classes: int
    head: tuple[int, ...] = (128,)
    attention: AttentionConfig | None = None
    dropout_rate: float = 0.4

    def __post_init__(self):
        object.__setattr__(self, "input_size", tuple(int(v) for v in self.input_size))
        object.__setattr__(self, "backbone", tuple(self.backbone))
        object.__setattr__(self, "head", tuple(int(v) for v in self.head))
        if len(self.input_size) != 3 or any(v < 1 for v in self.input_size):
            raise ConfigError(f"input_size must be 3 positive ints, got {self.input_size}")
        if not self.backbone:
            raise ConfigError("backbone needs at least one conv block")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if any(wdt < 1 for wdt in self.head):
            raise ConfigError(f"head widths must be >= 1, got {self.head}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.attention is not None:
            last = self.backbone[-1].out_channels
            if self.attention.channels != last:
                raise ConfigError(
                    f"attention channels {self.attention.channels} must equal "
                    f"final backbone channels {last}"
                )
        self.spatial_after_backbone()

    def spatial_after_backbone(self) -> tuple[int, int]:
        """Spatial size of the final feature map; rejects configs that pool away."""
        h, w, _ = self.input_size
        for i, block in enumerate(self.backbone):
            if block.pool:
                if h < 2 or w < 2 or h % 2 or w % 2:
                    raise ConfigError(
                        f"block {i + 1} cannot pool a {h}x{w} map; "
                        "spatial dims must stay even and >= 2"
                    )
                h, w = h // 2, w // 2
        return h, w


def default_backbone() -> tuple[ConvBlockConfig, ...]:
    """Three 3x3 stages (16, 32, 64 channels), each followed by a 2x2 pool."""
    return (
        ConvBlockConfig(16),
        ConvBlockConfig(32),
        ConvBlockConfig(64),
    )


def desk_config(num_classes: int, input_size=(48, 48, 3), attention: bool = True) -> ModelConfig:
    """Small configuration that trains in seconds on a CPU."""
    backbone = default_backbone()
    attn = AttentionConfig(backbone[-1].out_channels, reduction=4) if attention else None
    return ModelConfig(
        input_size=tuple(input_size),
        backbone=backbone,
        num_classes=num_classes,
        head=(128,),
        attention=attn,
        dropout_rate=0.4,
    )


def paper_config(num_classes: int) -> ModelConfig:
    """Full-resolution 512x512 preset mirroring the published training setup."""
    return ModelConfig(
        input_size=(512, 512, 3),
        backbone=(
            ConvBlockConfig(32),
            ConvBlockConfig(64),
            ConvBlockConfig(128),
            ConvBlockConfig(256),
        ),
        num_classes=num_classes,
        head=(40,),
        attention=AttentionConfig(256, reduction=4),
        dropout_rate=0.4,
    )


@dataclass(frozen=True)
class Model:
    """Immutable bundle of architecture, parameters, and frozen-layer names."""

    config: ModelConfig
    params: tuple[LayerParams, ...]
    frozen: frozenset[str] = field(default_factory=frozenset)

    def param(self, name: str) -> LayerParams:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"no layer named {name!r}")

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def with_params(self, params: tuple[LayerParams, ...]) -> "Model":
        return replace(self, params=params)


class _PlannedLayer(NamedTuple):
    name: str
    weight_shape: tuple[int, ...]  # conv (out, in, kh, kw) or dense (in, out)
    init: str  # he | xavier
    backbone: bool


def _steps(config: ModelConfig):
    """The network in forward order, as (kind, parameter layers) steps."""
    channels = config.input_size[2]
    for i, block in enumerate(config.backbone):
        k = block.kernel
        shape = (block.out_channels, channels, k, k)
        yield "conv", (_PlannedLayer(f"conv{i + 1}", shape, "he", True),)
        yield ("relu_maxpool" if block.pool else "relu"), ()
        channels = block.out_channels
    if config.attention is not None:
        cr = config.attention.reduced
        yield "attention", (
            _PlannedLayer("attn_reduce", (cr, channels, 1, 1), "he", True),
            _PlannedLayer("attn_expand", (channels, cr, 1, 1), "xavier", True),
        )
    yield "gap", ()
    width = channels
    for i, hidden in enumerate(config.head):
        yield "dense", (_PlannedLayer(f"fc{i + 1}", (width, hidden), "he", False),)
        yield "relu", ()
        yield "dropout", ()
        width = hidden
    yield "dense", (_PlannedLayer("logits", (width, config.num_classes), "xavier", False),)


def _layer_plan(config: ModelConfig) -> list[_PlannedLayer]:
    return [layer for _, layers in _steps(config) for layer in layers]


def _init_layer(planned: _PlannedLayer, rng: np.random.Generator) -> LayerParams:
    shape = planned.weight_shape
    if len(shape) == 4:
        out, inp, kh, kw = shape
        fan_in, fan_out, bias_len = inp * kh * kw, out * kh * kw, out
    else:
        fan_in, fan_out = shape
        bias_len = fan_out
    if planned.init == "he":
        limit = np.sqrt(6.0 / fan_in)
    else:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
    weights = rng.uniform(-limit, limit, size=shape).astype(np.float32)
    return LayerParams(planned.name, weights, np.zeros(bias_len, dtype=np.float32))


def build_model(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model; same (config, seed) -> same bits."""
    rng = np.random.default_rng(seed)
    params = tuple(_init_layer(planned, rng) for planned in _layer_plan(config))
    return Model(config=config, params=params)


def _weight_grads(result):
    grad, gw, gb = result
    return grad, ((gw, gb),)


def _attention_forward(x, reduce, expand):
    y, _, cache = ca_forward(x, AttentionParams(reduce=reduce, expand=expand))
    return y, cache


def _attention_backward(cache, grad):
    grad, g = ca_backward(cache, grad)
    return grad, (g["reduce"], g["expand"])


def _relu_maxpool_forward(x):
    r, _ = relu_forward(x)
    return maxpool2d_forward(r)


def _relu_maxpool_backward(cache, grad):
    # The pool routes each window's gradient to an element equal to the
    # window's maximum y, so that element passes the ReLU exactly when y > 0:
    # masking before routing equals relu_backward after it, bit for bit.
    # Every other element gets +0.0 either way.
    _, y = cache
    return maxpool2d_backward(cache, grad * (y > 0)), ()


# Step kind -> (forward, backward).  forward(x, *args) returns (y, cache);
# backward(cache, grad) returns the input grad and one (weight, bias) grad
# pair per parameter layer of the step.  The entries name the layer functions
# inside their bodies, so they resolve through this module's attributes at
# call time and a wrapper installed on ``attnens.model.<function>`` sees
# every call.
_KINDS = {
    "conv": (
        lambda x, p: conv2d_forward(x, p),
        lambda c, g: _weight_grads(conv2d_backward(c, g)),
    ),
    "relu": (lambda x: relu_forward(x), lambda c, g: (relu_backward(c, g), ())),
    "relu_maxpool": (_relu_maxpool_forward, _relu_maxpool_backward),
    "attention": (_attention_forward, _attention_backward),
    "gap": (lambda x: gap_forward(x), lambda c, g: (gap_backward(c, g), ())),
    "dense": (lambda x, p: dense_forward(x, p), lambda c, g: _weight_grads(dense_backward(c, g))),
    "dropout": (
        lambda x, rate, mode: dropout_forward(x, rate, mode),
        lambda c, g: (dropout_backward(c, g), ()),
    ),
}


def forward_cached(model: Model, batch: np.ndarray, mode: ForwardMode):
    """Run the full network, returning (probs, tape) for backpropagation.

    Each step of ``_steps`` appends one (kind, layer names, cache) entry to
    the tape, in forward order; the names are those of the step's parameter
    layers, empty for a step without parameters.  Softmax is applied to the
    last step's output and leaves no entry.
    """
    h, w, c = model.config.input_size
    if batch.ndim != 4 or batch.shape[1:] != (c, h, w):
        raise ShapeError(
            f"batch shape {batch.shape} does not match expected (N, {c}, {h}, {w})"
        )
    params = {p.name: p for p in model.params}
    tape = []
    x = batch
    dropouts = 0
    for kind, layers in _steps(model.config):
        names = tuple([layer.name for layer in layers])
        if kind == "dropout":
            # The one step fed more than parameters: its rate and a seed of its own.
            drop_mode = mode
            if mode.is_train:
                drop_mode = ForwardMode.train(derive_seed(mode.dropout_seed, dropouts))
            dropouts += 1
            args = (model.config.dropout_rate, drop_mode)
        else:
            args = [params[name] for name in names]
        x, cache = _KINDS[kind][0](x, *args)
        tape.append((kind, names, cache))
    return softmax_forward(x), tape


def forward(model: Model, batch: np.ndarray, mode: ForwardMode | None = None) -> np.ndarray:
    """Class probabilities for a batch; eval mode unless told otherwise."""
    probs, _ = forward_cached(model, batch, mode if mode is not None else ForwardMode.eval())
    return probs


def backward(model: Model, tape, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Walk the tape in reverse, returning '<layer>.weight'/'<layer>.bias' grads."""
    grads: dict[str, np.ndarray] = {}
    grad = grad_logits
    for depth in reversed(range(len(tape))):
        kind, names, cache = tape[depth]
        if depth == 0 and kind == "conv":
            # Nothing reads the image's gradient, so the bottom conv skips it.
            grad, pairs = _weight_grads(conv2d_backward(cache, grad, input_grad=False))
        else:
            grad, pairs = _KINDS[kind][1](cache, grad)
        for name, (gw, gb) in zip(names, pairs):
            grads[f"{name}.weight"] = gw
            grads[f"{name}.bias"] = gb
    return grads


def transfer(
    source,
    head: tuple[int, ...],
    num_classes: int,
    policy: str,
    seed: int,
    input_size: tuple[int, int, int] | None = None,
    dropout_rate: float | None = None,
) -> Model:
    """Graft a trained backbone onto a fresh head for a new label space.

    ``source`` is a Checkpoint.  Backbone and attention parameters are copied
    verbatim; head layers are re-initialized from ``seed``.  With the
    'freeze_backbone' policy the copied layers are marked frozen so training
    leaves them untouched.
    """
    if policy not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}, got {policy!r}")
    new_config = replace(
        source.config,
        head=tuple(head),
        num_classes=num_classes,
        input_size=tuple(input_size) if input_size is not None else source.config.input_size,
        dropout_rate=source.config.dropout_rate if dropout_rate is None else dropout_rate,
    )
    source_params = {p.name: p for p in source.params}
    rng = np.random.default_rng(seed)
    params = []
    frozen = []
    for planned in _layer_plan(new_config):
        if planned.backbone:
            src = source_params.get(planned.name)
            if src is None:
                raise TransferError(f"source checkpoint has no layer {planned.name!r}")
            if src.weights.shape != planned.weight_shape:
                raise TransferError(
                    f"layer {planned.name!r}: expected weights {planned.weight_shape}, "
                    f"checkpoint has {src.weights.shape}"
                )
            params.append(src)
            if policy == FREEZE_BACKBONE:
                frozen.append(planned.name)
        else:
            params.append(_init_layer(planned, rng))
    return Model(config=new_config, params=tuple(params), frozen=frozenset(frozen))


def config_to_dict(config: ModelConfig) -> dict:
    return encode_config(config)


def config_from_dict(d) -> ModelConfig:
    """Decode a model config; an int backbone block is short for {"out_channels": n}."""
    if isinstance(d, dict) and isinstance(d.get("backbone"), list):
        d = dict(d, backbone=[{"out_channels": b} if type(b) is int else b for b in d["backbone"]])
    return decode_config(ModelConfig, d, "model config")
