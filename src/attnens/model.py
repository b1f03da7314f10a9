"""Model assembly: configuration, initialization, forward/backward, transfer.

A model is a stack of conv blocks (conv -> ReLU -> optional 2x2 max pool),
an optional channel-gating block on the final feature map, global average
pooling, and a fully connected head (hidden layers with ReLU + dropout,
then a logits layer feeding softmax).

Initialization is a pure function of (config, seed): layers feeding a ReLU
draw He-uniform weights, layers feeding sigmoid or softmax draw
Xavier-uniform weights, and all biases start at zero.  Parameters live in
float32; forward passes accept float32 or float64 inputs and follow the
parameter precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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


@dataclass(frozen=True)
class _PlannedLayer:
    name: str
    kind: str  # conv | attn_reduce | attn_expand | dense | logits
    weight_shape: tuple[int, ...]
    init: str  # he | xavier
    fan_in: int
    fan_out: int
    backbone: bool


def _layer_plan(config: ModelConfig) -> list[_PlannedLayer]:
    plan = []
    channels = config.input_size[2]
    for i, block in enumerate(config.backbone):
        k = block.kernel
        plan.append(
            _PlannedLayer(
                name=f"conv{i + 1}",
                kind="conv",
                weight_shape=(block.out_channels, channels, k, k),
                init="he",
                fan_in=channels * k * k,
                fan_out=block.out_channels * k * k,
                backbone=True,
            )
        )
        channels = block.out_channels
    if config.attention is not None:
        cr = config.attention.reduced
        plan.append(
            _PlannedLayer(
                name="attn_reduce",
                kind="attn_reduce",
                weight_shape=(cr, channels, 1, 1),
                init="he",
                fan_in=channels,
                fan_out=cr,
                backbone=True,
            )
        )
        plan.append(
            _PlannedLayer(
                name="attn_expand",
                kind="attn_expand",
                weight_shape=(channels, cr, 1, 1),
                init="xavier",
                fan_in=cr,
                fan_out=channels,
                backbone=True,
            )
        )
    width = channels
    for i, hidden in enumerate(config.head):
        plan.append(
            _PlannedLayer(
                name=f"fc{i + 1}",
                kind="dense",
                weight_shape=(width, hidden),
                init="he",
                fan_in=width,
                fan_out=hidden,
                backbone=False,
            )
        )
        width = hidden
    plan.append(
        _PlannedLayer(
            name="logits",
            kind="logits",
            weight_shape=(width, config.num_classes),
            init="xavier",
            fan_in=width,
            fan_out=config.num_classes,
            backbone=False,
        )
    )
    return plan


def _init_layer(planned: _PlannedLayer, rng: np.random.Generator) -> LayerParams:
    if planned.init == "he":
        limit = np.sqrt(6.0 / planned.fan_in)
    else:
        limit = np.sqrt(6.0 / (planned.fan_in + planned.fan_out))
    weights = rng.uniform(-limit, limit, size=planned.weight_shape).astype(np.float32)
    bias_len = planned.weight_shape[0] if planned.kind.startswith(("conv", "attn")) else (
        planned.weight_shape[1]
    )
    bias = np.zeros(bias_len, dtype=np.float32)
    return LayerParams(planned.name, weights, bias)


def build_model(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model; same (config, seed) -> same bits."""
    rng = np.random.default_rng(seed)
    params = tuple(_init_layer(planned, rng) for planned in _layer_plan(config))
    return Model(config=config, params=params)


def forward_cached(model: Model, batch: np.ndarray, mode: ForwardMode):
    """Run the full network, returning (probs, tape) for backpropagation.

    The tape is a list of (kind, name, cache) entries in forward order.
    """
    h, w, c = model.config.input_size
    if batch.ndim != 4 or batch.shape[1:] != (c, h, w):
        raise ShapeError(
            f"batch shape {batch.shape} does not match expected (N, {c}, {h}, {w})"
        )
    params = {p.name: p for p in model.params}
    tape = []
    x = batch
    for i in range(len(model.config.backbone)):
        p = params[f"conv{i + 1}"]
        x, cache = conv2d_forward(x, p, stride=1, padding="same")
        tape.append(("conv", p.name, cache))
        x, cache = relu_forward(x)
        tape.append(("relu", "", cache))
        if model.config.backbone[i].pool:
            x, cache = maxpool2d_forward(x)
            tape.append(("maxpool", "", cache))
    if model.config.attention is not None:
        attention = AttentionParams(reduce=params["attn_reduce"], expand=params["attn_expand"])
        x, _, cache = ca_forward(x, attention)
        tape.append(("attention", "", cache))
    x, cache = gap_forward(x)
    tape.append(("gap", "", cache))
    for i in range(len(model.config.head)):
        p = params[f"fc{i + 1}"]
        x, cache = dense_forward(x, p)
        tape.append(("dense", p.name, cache))
        x, cache = relu_forward(x)
        tape.append(("relu", "", cache))
        drop_mode = mode
        if mode.is_train:
            drop_mode = ForwardMode.train(derive_seed(mode.dropout_seed, i))
        x, mask = dropout_forward(x, model.config.dropout_rate, drop_mode)
        tape.append(("dropout", "", mask))
    p = params["logits"]
    logits, cache = dense_forward(x, p)
    tape.append(("dense", p.name, cache))
    probs = softmax_forward(logits)
    return probs, tape


def forward(model: Model, batch: np.ndarray, mode: ForwardMode | None = None) -> np.ndarray:
    """Class probabilities for a batch; eval mode unless told otherwise."""
    probs, _ = forward_cached(model, batch, mode if mode is not None else ForwardMode.eval())
    return probs


def _weight_grads(name: str, result):
    grad, gw, gb = result
    return grad, {f"{name}.weight": gw, f"{name}.bias": gb}


def _attention_backward(name: str, cache, grad):
    grad, g = ca_backward(cache, grad)
    return grad, {
        "attn_reduce.weight": g["reduce"][0],
        "attn_reduce.bias": g["reduce"][1],
        "attn_expand.weight": g["expand"][0],
        "attn_expand.bias": g["expand"][1],
    }


# Tape kind -> (name, cache, upstream grad) -> (input grad, parameter grads).
# The entries name the layer functions inside their bodies, so they resolve
# through this module's attributes at call time and a wrapper installed on
# ``attnens.model.<function>`` sees every call.
_BACKWARD = {
    "conv": lambda name, cache, grad: _weight_grads(name, conv2d_backward(cache, grad)),
    "dense": lambda name, cache, grad: _weight_grads(name, dense_backward(cache, grad)),
    "relu": lambda name, cache, grad: (relu_backward(cache, grad), {}),
    "maxpool": lambda name, cache, grad: (maxpool2d_backward(cache, grad), {}),
    "dropout": lambda name, cache, grad: (dropout_backward(cache, grad), {}),
    "gap": lambda name, cache, grad: (gap_backward(cache, grad), {}),
    "attention": _attention_backward,
}


def backward(model: Model, tape, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Walk the tape in reverse, returning '<layer>.weight'/'<layer>.bias' grads."""
    grads: dict[str, np.ndarray] = {}
    grad = grad_logits
    for kind, name, cache in reversed(tape):
        grad, layer_grads = _BACKWARD[kind](name, cache, grad)
        grads.update(layer_grads)
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
