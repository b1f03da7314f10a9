"""Random byte edits of a PPM, a prediction CSV or labels.csv raise typed errors only.

Each case starts from a valid file and overwrites, inserts or deletes one to
four bytes.  The reader must then either load the file or raise the
library's error for that format, which the CLI turns into exit 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnens.data import load_dataset, read_label_table
from attnens.ensemble import PredictionMatrix, read_matrix, write_matrix
from attnens.errors import IngestError, ManifestError, MatrixParseError
from attnens.ppm import read_ppm, write_ppm

FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)
# Bytes that mean something to one of the formats, drawn as often as all others.
SPECIAL = b'\x00\t\n\r "#,-.0159P_e\x85\xff'


def mutate(data, raw: bytes) -> bytes:
    edits = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(("overwrite", "insert", "delete")),
                st.integers(0, len(raw)),
                st.one_of(st.sampled_from(SPECIAL), st.integers(0, 255)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    bad = bytearray(raw)
    for op, at, value in edits:
        if op == "insert":
            bad.insert(min(at, len(bad)), value)
        elif op == "overwrite":
            bad[min(at, len(bad) - 1)] = value
        else:
            del bad[min(at, len(bad) - 1)]
    return bytes(bad)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_data")
    rows = ["a1,cat,train,0,0,4,4", "b2,dog,train,,,,", "c3,cat,test,1,0,3,2", "d4,dog,test,,,,"]
    rng = np.random.default_rng(3)
    for row in rows:
        sid = row.split(",")[0]
        write_ppm(root / f"{sid}.ppm", rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8))
    manifest = "id,class_name,split,x_min,y_min,x_max,y_max\n" + "\n".join(rows) + "\n"
    (root / "labels.csv").write_text(manifest)
    return root, manifest.encode()


@FUZZ
@given(data=st.data())
def test_ppm_edits(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ppm"
    raw = b"P6\n# made by hand\n2 2\n255\n" + bytes(range(12))
    path.write_bytes(mutate(data, raw))
    try:
        read_ppm(path)
    except IngestError:
        pass


@pytest.fixture(scope="module")
def prediction_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_preds") / "m.csv"
    probs = np.array([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1], [0.0, 0.0, 1.0]])
    write_matrix(PredictionMatrix("m", ("a1", "b2", "c3"), probs), path)
    return path, path.read_bytes()


@FUZZ
@given(data=st.data())
def test_prediction_csv_edits(prediction_csv, data):
    path, raw = prediction_csv
    path.write_bytes(mutate(data, raw))
    try:
        read_matrix(path)
    except MatrixParseError:
        pass


@FUZZ
@given(data=st.data())
def test_manifest_edits(dataset_dir, data):
    root, raw = dataset_dir
    (root / "labels.csv").write_bytes(mutate(data, raw))
    try:
        load_dataset(root)
    except IngestError:  # ManifestError included
        pass
    try:
        read_label_table(root / "labels.csv")
    except ManifestError:
        pass
