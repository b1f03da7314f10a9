"""Model assembly: configuration, initialization, forward/backward, transfer.

A model is a stack of conv blocks (conv -> ReLU -> optional 2x2 max pool),
an optional channel-gating block on the final feature map, global average
pooling, and a fully connected head (hidden layers with ReLU + dropout,
then a logits layer feeding softmax).

``_steps(config)`` spells that order out once, as (kind, parameter layers)
steps.  The parameter plan is its flattened layers; ``forward_steps`` runs a
range of the steps through the ``_KINDS`` table and records a (kind, layer
names, cache) tape entry for each, ``forward_cached`` runs the rest of the
network from a step and applies softmax, and ``backward`` walks the tape in
reverse through the same table.  Every entry speaks the layer primitives'
convention, the attention block included: a forward returns (y, cache), and
a backward returns a tuple of the input gradient followed by the weight and
bias gradient of each of the step's parameter layers, which ``backward``
pairs by name.  The walk stops at the lowest step that holds a layer not in
``model.frozen`` (a live layer), and that step skips its input gradient,
since nothing reads it: with nothing frozen this is the bottom conv, which
computes weight gradients only, and a frozen-backbone finetune runs only
the head's backward.  Only live layers' gradients are returned.  A pass that
no backward will follow (``forward``, ``trainer.evaluate``, and the frozen
prefix below ``live_start``, which a frozen-backbone finetune runs ahead of
its head) keeps no tape: each step's cache is dropped as soon as the step
returns, so the conv outputs and pooled maps it holds are freed during the
pass.  A pooled block's ReLU and pool form one ``relu_maxpool`` step.  Its
forward pools the conv output first and applies the ReLU to the
quarter-size pooled map ``y``, with the bits of the ReLU followed by the
pool; it caches the conv output and ``y``.  Its backward rebuilds the
full-size ReLU output, applies the ReLU mask ``y > 0`` to the quarter-size
upstream gradient and routes it through the pool, with the bits of
relu_backward after maxpool2d_backward.  So a full-size ReLU runs only in a
backward that reaches the trunk, never in a pass that no backward follows
nor in a frozen-backbone finetune.

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

from .attention import AttentionConfig, ca_backward, ca_forward
from .errors import ConfigError, ShapeError, TransferError, encode_config
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

FREEZE_BACKBONE = "freeze"
FINETUNE_ALL = "all"
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


def desk_config(num_classes: int, input_size=(48, 48, 3), attention: bool = True) -> ModelConfig:
    """Small configuration that trains in seconds on a CPU.

    Three 3x3 stages (16, 32, 64 channels), each followed by a 2x2 pool.
    """
    backbone = (ConvBlockConfig(16), ConvBlockConfig(32), ConvBlockConfig(64))
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

    @property
    def bias_shape(self) -> tuple[int]:
        """One bias per output channel of a conv, per output unit of a dense layer."""
        shape = self.weight_shape
        return (shape[0] if len(shape) == 4 else shape[1],)


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
        fan_in, fan_out = inp * kh * kw, out * kh * kw
    else:
        fan_in, fan_out = shape
    if planned.init == "he":
        limit = np.sqrt(6.0 / fan_in)
    else:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
    weights = rng.uniform(-limit, limit, size=shape).astype(np.float32)
    return LayerParams(planned.name, weights, np.zeros(planned.bias_shape, dtype=np.float32))


def build_model(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model; same (config, seed) -> same bits."""
    rng = np.random.default_rng(seed)
    params = tuple(_init_layer(planned, rng) for planned in _layer_plan(config))
    return Model(config=config, params=params)


def _relu_maxpool_forward(x):
    # ReLU and the 2x2 max are both monotone, and np.maximum(v, 0) maps -0.0
    # to +0.0, so the ReLU of the pooled map has the bits of the pool of the
    # ReLU output, on a quarter of the values; only which NaN a window of
    # several NaN payloads keeps may differ, and softmax refuses NaN logits.
    # The cache holds the conv output x, not a full-size ReLU output.
    pooled, _ = maxpool2d_forward(x)
    y, _ = relu_forward(pooled)
    return y, (x, y)


def _relu_maxpool_backward(cache, grad):
    # Routing runs on the ReLU output rebuilt from x, as in the unfused pair.
    # The pool routes each window's gradient to an element equal to the
    # window's maximum y, so that element passes the ReLU exactly when y > 0:
    # masking before routing equals relu_backward after it, bit for bit.
    # Every other element gets +0.0 either way.
    x, y = cache
    r, _ = relu_forward(x)
    return (maxpool2d_backward((r, y), grad * (y > 0)),)


# Step kind -> (forward, backward), in the layer primitives' convention.
# forward(x, *args) returns (y, cache); backward(cache, grad) returns a
# tuple: the input grad, then the weight and bias grad of each parameter
# layer of the step, in order.  The backward of a step with parameters also
# takes ``input_grad=False``, which may return None for the input grad; the
# attention block ignores the flag and forms it anyway.  The entries name
# the layer functions inside their bodies, so they resolve through this
# module's attributes at call time and a wrapper installed on
# ``attnens.model.<function>`` sees every call.
_KINDS = {
    "conv": (
        lambda x, p: conv2d_forward(x, p),
        lambda c, g, input_grad=True: conv2d_backward(c, g, input_grad=input_grad),
    ),
    "relu": (lambda x: relu_forward(x), lambda c, g: (relu_backward(c, g),)),
    "relu_maxpool": (_relu_maxpool_forward, _relu_maxpool_backward),
    "attention": (
        lambda x, reduce, expand: ca_forward(x, reduce, expand),
        lambda c, g, input_grad=True: ca_backward(c, g),
    ),
    "gap": (lambda x: gap_forward(x), lambda c, g: (gap_backward(c, g),)),
    "dense": (
        lambda x, p: dense_forward(x, p),
        lambda c, g, input_grad=True: dense_backward(c, g, input_grad=input_grad),
    ),
    "dropout": (
        lambda x, rate, mode: dropout_forward(x, rate, mode),
        lambda c, g: (dropout_backward(c, g),),
    ),
}


def live_start(model: Model) -> int:
    """Index in ``_steps`` of the lowest step holding a live layer.

    A live layer is one not in ``model.frozen``; with nothing frozen this is
    0, the bottom conv, and with every layer frozen it is the step count.
    The steps below it are the frozen prefix, which no backward reaches.
    """
    steps = list(_steps(model.config))
    return next(
        (
            depth
            for depth, (_, layers) in enumerate(steps)
            if any(layer.name not in model.frozen for layer in layers)
        ),
        len(steps),
    )


def forward_steps(
    model: Model,
    x: np.ndarray,
    mode: ForwardMode,
    start: int = 0,
    stop: int | None = None,
    keep_tape: bool = True,
):
    """Run steps ``start`` up to ``stop`` of ``_steps`` on ``x``: (output, tape).

    ``x`` is the input of step ``start``: the image batch when it is 0,
    whose shape is then checked.  Each step run appends one (kind, layer
    names, cache) entry to the tape, in forward order; the names are those
    of the step's parameter layers, empty for a step without parameters.
    A dropout step draws the mask it would draw in a run of every step, so
    the steps below ``stop`` followed by the steps from ``stop`` on give
    the bits of one run.

    With ``keep_tape=False`` the tape is ``None`` and each step's cache is
    dropped as soon as the step returns, so an array that only the cache
    holds is freed before the next step runs, not at the end of the pass.
    The output is the same bits either way.
    """
    if start == 0:
        h, w, c = model.config.input_size
        if x.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ShapeError(
                f"batch shape {x.shape} does not match expected (N, {c}, {h}, {w})"
            )
    steps = list(_steps(model.config))
    params = {p.name: p for p in model.params}
    tape = [] if keep_tape else None
    dropouts = sum(kind == "dropout" for kind, _ in steps[:start])
    for kind, layers in steps[start:stop]:
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
        if keep_tape:
            tape.append((kind, names, cache))
        # Without the tape, this name would keep the cache alive through the
        # next step.
        del cache
    return x, tape


def forward_cached(
    model: Model, batch: np.ndarray, mode: ForwardMode, keep_tape: bool = True, start: int = 0
):
    """Run the network from step ``start`` (the image batch at 0), returning
    (probs, tape) for backpropagation.

    ``forward_steps`` runs the steps and builds the tape; softmax is applied
    to the last step's output and leaves no entry.  A ``start`` above 0
    takes the output of the steps below it, as ``forward_steps`` returns it,
    and the tape then begins at step ``start``.
    """
    x, tape = forward_steps(model, batch, mode, start, None, keep_tape)
    return softmax_forward(x), tape


def forward(model: Model, batch: np.ndarray, mode: ForwardMode | None = None) -> np.ndarray:
    """Class probabilities for a batch; eval mode unless told otherwise."""
    mode = mode if mode is not None else ForwardMode.eval()
    probs, _ = forward_cached(model, batch, mode, False)
    return probs


def backward(model: Model, tape, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Walk the tape in reverse, returning the live layers' gradients.

    A layer is live when it is not in ``model.frozen``; the result maps
    '<layer>.weight'/'<layer>.bias' to a gradient for each live layer and
    for no other.  The walk stops at the lowest step that holds a live
    layer, and that step skips its input gradient, since nothing reads it.
    Frozen layers above that step are walked for the input gradient they
    pass down.  With nothing frozen the lowest such step is the bottom conv;
    with every layer frozen nothing is walked and the result is empty.  A
    returned gradient has the same bits as in a walk of the whole tape.
    """
    stop = next(
        (depth for depth, (_, names, _) in enumerate(tape) if not model.frozen.issuperset(names)),
        len(tape),
    )
    grads: dict[str, np.ndarray] = {}
    grad = grad_logits
    for depth in reversed(range(stop, len(tape))):
        kind, names, cache = tape[depth]
        if depth == stop:
            grad, *layer_grads = _KINDS[kind][1](cache, grad, input_grad=False)
        else:
            grad, *layer_grads = _KINDS[kind][1](cache, grad)
        for name, gw, gb in zip(names, layer_grads[::2], layer_grads[1::2]):
            if name not in model.frozen:
                grads[f"{name}.weight"] = gw
                grads[f"{name}.bias"] = gb
    return grads


def transfer(source: Model, config: ModelConfig, policy: str, seed: int) -> Model:
    """Graft a trained backbone onto a fresh head for a new label space.

    ``source`` is a trained ``Model``, in memory or from ``load_checkpoint``;
    its frozen set is not carried over.  ``config`` is the whole target
    model: it must restate the source's backbone and attention, or a
    ``TransferError`` names the part that differs, and it sets the head,
    the class count, the input size and the dropout rate.  Backbone and
    attention parameters are copied verbatim, and a copied layer whose shape
    the config changes (through the input channel count) is refused with a
    ``TransferError``; head layers are re-initialized from ``seed``.  With
    the ``FREEZE_BACKBONE`` policy the copied layers are marked frozen so
    training leaves them untouched; ``FINETUNE_ALL`` trains everything.
    """
    if policy not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}, got {policy!r}")
    for part in ("backbone", "attention"):
        if getattr(config, part) != getattr(source.config, part):
            raise TransferError(f"config {part} must restate the source checkpoint {part}")
    source_params = {p.name: p for p in source.params}
    rng = np.random.default_rng(seed)
    params = []
    frozen = []
    for planned in _layer_plan(config):
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
    return Model(config=config, params=tuple(params), frozen=frozenset(frozen))


def config_to_dict(config: ModelConfig) -> dict:
    return encode_config(config)
