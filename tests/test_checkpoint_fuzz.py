"""Random corruption of a checkpoint's header region raises checkpoint errors only."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnens.checkpoint import load_checkpoint, save_model
from attnens.errors import CheckpointError
from attnens.model import build_model, desk_config


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.aens"
    save_model(build_model(desk_config(4), seed=12), str(path), history_summary={"epochs": 2})
    return path, path.read_bytes()


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_header_region_corruption(saved, data):
    # The header region runs from the magic through the end of the JSON
    # header: magic, version, header length and the header itself.
    path, raw = saved
    end = 12 + struct.unpack_from("<I", raw, 8)[0]
    edits = data.draw(
        st.lists(st.tuples(st.integers(0, end - 1), st.integers(0, 255)), min_size=1, max_size=3)
    )
    bad = bytearray(raw)
    for at, value in edits:
        bad[at] = value
    path.write_bytes(bytes(bad))
    try:
        load_checkpoint(str(path))
    except CheckpointError:  # UnsupportedVersionError included
        pass
