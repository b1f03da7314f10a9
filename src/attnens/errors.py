"""Exception types shared across the library, and the config-dataclass codec."""

from __future__ import annotations

import dataclasses
import types
import typing


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class PrecisionError(ValueError):
    """Operands mix single- and double-precision buffers."""


class ConfigError(ValueError):
    """A configuration value violates its documented range or structure."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values or failed a numeric audit."""


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt or structurally invalid."""


class UnsupportedVersionError(CheckpointError):
    """A checkpoint was written by an unknown format version."""


class TransferError(RuntimeError):
    """A source checkpoint cannot be grafted onto the requested model."""


class IngestError(RuntimeError):
    """A dataset file could not be read or failed validation."""


class ManifestError(IngestError):
    """The dataset manifest itself is malformed."""


class MissingBboxError(ValueError):
    """A sample has no bounding box but one is required."""


class MatrixParseError(RuntimeError):
    """A prediction-matrix CSV file is malformed."""


class AlignmentError(ValueError):
    """Prediction matrices or label tables disagree on sample identity."""


def reject_unknown_keys(mapping, allowed, context):
    """Raise ConfigError if ``mapping`` contains keys outside ``allowed``."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")


def encode_config(config) -> dict:
    """JSON-ready dict of a config dataclass: nested configs become dicts,
    tuples become lists, in field order."""

    def encode(value):
        if dataclasses.is_dataclass(value):
            return encode_config(value)
        if isinstance(value, tuple):
            return [encode(v) for v in value]
        return value

    return {f.name: encode(getattr(config, f.name)) for f in dataclasses.fields(config)}


def decode_config(cls, mapping, context: str):
    """Build config dataclass ``cls`` from a JSON-style mapping.

    Keys are the field names; a field without a default is required.  Each
    value must match the field's annotation: ints for ``int`` (bools are
    refused), ints or floats for ``float``, lists for tuples, mappings for
    nested configs and ``None`` only where the annotation allows it.
    Anything else raises ConfigError naming the offending key.
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(mapping).__name__}")
    fields = dataclasses.fields(cls)
    reject_unknown_keys(mapping, {f.name for f in fields}, context)
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        if f.name in mapping:
            kwargs[f.name] = _decode(hints[f.name], mapping[f.name], f"{context}: {f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{context}: missing required key {f.name!r}")
    return cls(**kwargs)


def _decode(hint, value, where: str):
    if dataclasses.is_dataclass(hint):
        return decode_config(hint, value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        # Every tuple field holds one element type; lengths are checked by
        # the dataclass itself.
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        return tuple(_decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _decode(hint, value, where)
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise ConfigError(f"{where}: expected {hint.__name__}, got {type(value).__name__}")
    return value
