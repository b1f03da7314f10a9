"""Binary checkpoint format: round trips and corruption detection."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from attnens.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    load_model,
    save_model,
)
from attnens.errors import CheckpointError, ConfigError, UnsupportedVersionError
from attnens.layers import LayerParams
from attnens.model import (
    FINETUNE_ALL,
    FREEZE_BACKBONE,
    build_model,
    desk_config,
    forward,
    transfer,
)


@pytest.fixture
def model():
    return build_model(desk_config(4), seed=12)


def save_bytes(model, path, history=None):
    save_model(model, str(path), history_summary=history or {"epochs": 2})
    return path.read_bytes()


def with_header(raw, header):
    """Replace the JSON header of checkpoint bytes ``raw``, fixing its length."""
    old_len = struct.unpack_from("<I", raw, 8)[0]
    return raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + old_len :]


def first_record_offset(raw):
    """Offset of the first record's name length field."""
    return 12 + struct.unpack_from("<I", raw, 8)[0] + 4


class TestRoundTrip:
    def test_save_load_save_bytes_identical(self, model, tmp_path):
        p1 = tmp_path / "a.aens"
        p2 = tmp_path / "b.aens"
        raw1 = save_bytes(model, p1)
        again = load_model(str(p1))
        save_model(again, str(p2), history_summary={"epochs": 2})
        assert raw1 == p2.read_bytes()

    def test_reloaded_model_same_outputs(self, model, tmp_path):
        p = tmp_path / "m.aens"
        save_bytes(model, p)
        again = load_model(str(p))
        x = np.random.default_rng(0).random((2, 3, 48, 48)).astype(np.float32)
        np.testing.assert_array_equal(forward(model, x), forward(again, x))

    def test_header_metadata_survives(self, model, tmp_path):
        p = tmp_path / "m.aens"
        save_model(model, str(p), history_summary={"epochs": 3, "final_test_acc": 0.5})
        _, history = load_checkpoint(str(p))
        assert history == {"epochs": 3, "final_test_acc": 0.5}
        assert p.read_bytes()[4:8] == FORMAT_VERSION.to_bytes(4, "little")

    def test_frozen_set_survives(self, model, tmp_path):
        config = replace(model.config, head=(128,), num_classes=6)
        dst = transfer(model, config, FREEZE_BACKBONE, 0)
        p = tmp_path / "f.aens"
        save_model(dst, str(p), history_summary={})
        again = load_model(str(p))
        assert again.frozen == dst.frozen

    def test_params_stored_float32_exact(self, model, tmp_path):
        p = tmp_path / "m.aens"
        save_bytes(model, p)
        again = load_model(str(p))
        for name in model.param_names():
            np.testing.assert_array_equal(again.param(name).weights, model.param(name).weights)
            np.testing.assert_array_equal(again.param(name).bias, model.param(name).bias)

    @pytest.mark.parametrize(
        "policy", [FREEZE_BACKBONE, FINETUNE_ALL], ids=["freeze_backbone", "finetune_all"]
    )
    def test_transfer_from_loaded_model_matches_in_memory(self, model, tmp_path, policy):
        # `attnens finetune` grafts a model read back from disk; the library
        # and the demos graft one held in memory.
        p = tmp_path / "m.aens"
        save_bytes(model, p)
        loaded, _ = load_checkpoint(str(p))
        changes = dict(head=(16,), num_classes=3)
        got = transfer(loaded, replace(loaded.config, **changes), policy, 5)
        want = transfer(model, replace(model.config, **changes), policy, 5)
        assert got.config == want.config
        assert got.frozen == want.frozen
        assert [(q.name, q.weights.tobytes(), q.bias.tobytes()) for q in got.params] == [
            (q.name, q.weights.tobytes(), q.bias.tobytes()) for q in want.params
        ]


class TestCorruption:
    def test_bad_magic(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        p.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))

    def test_unsupported_version(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        bad = MAGIC + (99).to_bytes(4, "little") + raw[8:]
        p.write_bytes(bad)
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(str(p))

    def test_truncated_file(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))

    def test_trailing_garbage(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        p.write_bytes(raw + b"\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))

    def test_header_json_garbage(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        # header JSON length sits right after magic+version; poison its first byte
        json_start = 4 + 4 + 4
        bad = raw[:json_start] + b"\xff" + raw[json_start + 1 :]
        p.write_bytes(bad)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(str(tmp_path / "absent.aens"))

    def test_header_length_beyond_file(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        p.write_bytes(raw[:8] + struct.pack("<I", 0xFFFFFFFF) + raw[12:])
        with pytest.raises(CheckpointError, match="only"):
            load_checkpoint(str(p))

    def test_invalid_config_in_header(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        header = json.loads(raw[12 : 12 + struct.unpack_from("<I", raw, 8)[0]])
        header["config"] = {"bogus": 1}
        p.write_bytes(with_header(raw, json.dumps(header).encode("utf-8")))
        with pytest.raises(CheckpointError, match="config") as info:
            load_checkpoint(str(p))
        assert isinstance(info.value.__cause__, ConfigError)

    def test_header_json_not_an_object(self, model, tmp_path):
        p = tmp_path / "m.aens"
        p.write_bytes(with_header(save_bytes(model, p), b"5"))
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(str(p))

    def test_frozen_not_a_list_of_names(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        header = raw[12 : 12 + struct.unpack_from("<I", raw, 8)[0]]
        p.write_bytes(with_header(raw, header.replace(b'"frozen":[]', b'"frozen":5')))
        with pytest.raises(CheckpointError, match="frozen"):
            load_checkpoint(str(p))

    def test_history_not_an_object(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        header = raw[12 : 12 + struct.unpack_from("<I", raw, 8)[0]]
        assert b'"history":{"epochs":2}' in header
        p.write_bytes(with_header(raw, header.replace(b'"history":{"epochs":2}', b'"history":[1,2]')))
        with pytest.raises(CheckpointError, match="history"):
            load_checkpoint(str(p))

    def test_record_name_not_utf8(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        at = first_record_offset(raw) + 4
        p.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
        with pytest.raises(CheckpointError, match="UTF-8") as info:
            load_checkpoint(str(p))
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_dims_beyond_file_refused_before_reading(self, model, tmp_path):
        p = tmp_path / "m.aens"
        raw = save_bytes(model, p)
        at = first_record_offset(raw)
        name_len = struct.unpack_from("<I", raw, at)[0]
        dims_at = at + 4 + name_len + 4
        p.write_bytes(raw[:dims_at] + struct.pack("<I", 0xFFFFFFFF) + raw[dims_at + 4 :])
        with pytest.raises(CheckpointError, match="only"):
            load_checkpoint(str(p))

    @pytest.mark.parametrize("layer", ["conv2", "logits"])
    def test_bias_length_off_the_plan(self, model, tmp_path, layer):
        # One bias entry too many, for a conv and for a dense layer: the
        # record is rank 1 and well formed, but the config plans one bias per
        # output channel or unit.
        params = tuple(
            LayerParams(p.name, p.weights, np.append(p.bias, np.float32(0)))
            if p.name == layer else p
            for p in model.params
        )
        p = tmp_path / "m.aens"
        save_bytes(model.with_params(params), p)
        with pytest.raises(CheckpointError, match=f"layer '{layer}': bias shape"):
            load_checkpoint(str(p))
