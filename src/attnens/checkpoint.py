"""Binary model checkpoints.

Layout (all integers little-endian uint32 unless noted):

    magic   4 bytes, literal b"AENS"
    version u32, currently 1
    json    u32 length + UTF-8 payload: {"config": ..., "frozen": [...],
            "history": {...}} in canonical form (sorted keys, no spaces)
    count   u32 number of parameter records
    record  u32 name length + UTF-8 name,
            u32 rank, rank * u32 dims,
            raw little-endian float32 data in row-major order

Records appear in model order as '<layer>.weight' then '<layer>.bias'.
Writing the same model twice yields identical bytes, and a load/save round
trip is byte-exact because parameters are stored in their native float32.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, UnsupportedVersionError
from .layers import LayerParams
from .model import Model, ModelConfig, _layer_plan, config_from_dict, config_to_dict

MAGIC = b"AENS"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """Deserialized checkpoint: architecture, weights, frozen set, history."""

    config: ModelConfig
    params: tuple[LayerParams, ...]
    frozen: frozenset[str]
    history_summary: dict
    format_version: int = FORMAT_VERSION

    def to_model(self) -> Model:
        return Model(config=self.config, params=self.params, frozen=self.frozen)


def from_model(model: Model, history_summary: dict | None = None) -> Checkpoint:
    """Wrap an in-memory model as a checkpoint without touching disk."""
    return Checkpoint(
        config=model.config,
        params=model.params,
        frozen=model.frozen,
        history_summary=history_summary or {},
    )


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_model(model: Model, path, history_summary: dict | None = None) -> None:
    """Serialize a model (and optional training summary) to ``path``."""
    header = _canonical_json(
        {
            "config": config_to_dict(model.config),
            "frozen": sorted(model.frozen),
            "history": history_summary or {},
        }
    )
    records = []
    for p in model.params:
        records.append((f"{p.name}.weight", p.weights))
        records.append((f"{p.name}.bias", p.bias))
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(struct.pack("<I", len(records)))
        for name, arr in records:
            if arr.dtype != np.float32:
                raise CheckpointError(
                    f"record {name!r} must be float32, got {arr.dtype}"
                )
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    # A corrupt length or dims field can name gigabytes; refuse it before
    # ``read`` allocates a buffer of that size.
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise CheckpointError(
            f"truncated checkpoint: {what} needs {n} bytes, only {left} left"
        )
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint: expected {n} bytes for {what}")
    return data


def _read_u32(f, what: str) -> int:
    return struct.unpack("<I", _read_exact(f, 4, what))[0]


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate a checkpoint file."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}; not a checkpoint file")
        version = _read_u32(f, "version")
        if version != FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
            )
        header_len = _read_u32(f, "header length")
        try:
            header = json.loads(_read_exact(f, header_len, "header"))
        except ValueError as e:
            raise CheckpointError(f"corrupt header JSON: {e}") from e
        if not isinstance(header, dict):
            raise CheckpointError(
                f"header must be a JSON object, got {type(header).__name__}"
            )
        for key in ("config", "frozen", "history"):
            if key not in header:
                raise CheckpointError(f"header missing {key!r}")
        config = config_from_dict(header["config"])

        count = _read_u32(f, "record count")
        blobs: dict[str, np.ndarray] = {}
        order = []
        for i in range(count):
            name_len = _read_u32(f, f"record {i} name length")
            try:
                name = _read_exact(f, name_len, f"record {i} name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"record {i} name is not UTF-8: {e}") from e
            rank = _read_u32(f, f"record {name!r} rank")
            if rank == 0 or rank > 8:
                raise CheckpointError(f"record {name!r}: implausible rank {rank}")
            dims = struct.unpack(
                f"<{rank}I", _read_exact(f, 4 * rank, f"record {name!r} dims")
            )
            raw = _read_exact(f, 4 * math.prod(dims), f"record {name!r} data")
            if name in blobs:
                raise CheckpointError(f"duplicate record {name!r}")
            blobs[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
            order.append(name)
        if f.read(1):
            raise CheckpointError("trailing bytes after final record")

    params = []
    for planned in _layer_plan(config):
        wname, bname = f"{planned.name}.weight", f"{planned.name}.bias"
        if wname not in blobs or bname not in blobs:
            raise CheckpointError(f"missing records for layer {planned.name!r}")
        weights, bias = blobs.pop(wname), blobs.pop(bname)
        if weights.shape != planned.weight_shape:
            raise CheckpointError(
                f"layer {planned.name!r}: weights shape {weights.shape} does not "
                f"match config shape {planned.weight_shape}"
            )
        if bias.ndim != 1:
            raise CheckpointError(f"layer {planned.name!r}: bias must be rank 1")
        params.append(LayerParams(planned.name, weights, bias))
    if blobs:
        raise CheckpointError(f"unexpected extra records {sorted(blobs)}")

    names = header["frozen"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise CheckpointError("header 'frozen' must be a list of layer names")
    frozen = frozenset(names)
    known = {p.name for p in params}
    if not frozen <= known:
        raise CheckpointError(f"frozen set names unknown layers {sorted(frozen - known)}")
    return Checkpoint(
        config=config,
        params=tuple(params),
        frozen=frozen,
        history_summary=header["history"],
        format_version=version,
    )


def load_model(path) -> Model:
    return load_checkpoint(path).to_model()
