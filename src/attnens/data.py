"""Dataset ingestion: manifest parsing, image loading, bbox cropping.

A dataset directory contains PPM images plus a ``labels.csv`` manifest with
columns ``id, class_name, split`` and optional ``x_min, y_min, x_max, y_max``
bounding boxes (pixel coordinates, max-exclusive).  Class indices are
assigned by sorting the class names that appear anywhere in the manifest, so
train and test splits always share one label space.  Sample order follows
manifest order.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import IngestError, ManifestError, MissingBboxError
from .ppm import read_ppm

MANIFEST_NAME = "labels.csv"
_BBOX_COLUMNS = ("x_min", "y_min", "x_max", "y_max")
SPLITS = ("train", "test")


@dataclass(frozen=True)
class Sample:
    """One labeled image: [C, H, W] float32 in [0, 1], plus an optional bbox."""

    id: str
    image: np.ndarray
    label: int
    bbox: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        if self.image.ndim != 3:
            raise IngestError(f"sample {self.id!r}: image must be [C, H, W]")
        if self.bbox is not None:
            x_min, y_min, x_max, y_max = self.bbox
            _, h, w = self.image.shape
            if not (0 <= x_min < x_max <= w and 0 <= y_min < y_max <= h):
                raise IngestError(
                    f"sample {self.id!r}: bbox {self.bbox} outside {w}x{h} image"
                )


@dataclass(frozen=True)
class Dataset:
    """Ordered samples over a dense class space; ``split`` is None for 'all'."""

    samples: tuple[Sample, ...]
    class_names: tuple[str, ...]
    split: str | None = None

    def __post_init__(self):
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ManifestError("duplicate sample ids in dataset")
        k = len(self.class_names)
        for s in self.samples:
            if not 0 <= s.label < k:
                raise ManifestError(
                    f"sample {s.id!r}: label {s.label} outside [0, {k})"
                )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def sample_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.samples)


def image_from_uint8(pixels: np.ndarray) -> np.ndarray:
    """Convert [H, W, 3] uint8 pixels to a [3, H, W] float32 tensor in [0, 1]."""
    return (pixels.astype(np.float32) / np.float32(255.0)).transpose(2, 0, 1)


def _parse_bbox(row: dict, row_num: int):
    values = [row.get(c, "") or "" for c in _BBOX_COLUMNS]
    if all(v.strip() == "" for v in values):
        return None
    try:
        return tuple(int(v) for v in values)
    except ValueError:
        raise ManifestError(
            f"{MANIFEST_NAME} row {row_num}: bbox columns must be integers or empty"
        ) from None


def _read_rows(path, required: set[str]) -> list[dict]:
    """The rows of a CSV manifest whose header names every ``required`` column."""
    try:
        f = open(path, newline="")
    except OSError as e:
        raise ManifestError(f"{path}: {e}") from None
    with f:
        try:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise ManifestError(f"{path}: header must include columns {sorted(required)}")
            return list(reader)
        except (UnicodeDecodeError, csv.Error) as e:
            raise ManifestError(f"{path}: {e}") from e


def _row_id(row: dict, where: str) -> str:
    """The stripped id of a manifest row; ``where`` names the row in errors.

    ``predict`` writes ids unquoted into its CSV and ``read_matrix`` splits
    that file with ``str.splitlines``, so an id holding a comma or anything
    splitlines breaks on (a newline, but also a vertical tab, a form feed or
    U+2028) is refused here rather than breaking that file later.
    """
    sid = (row["id"] or "").strip()
    if not sid:
        raise ManifestError(f"{where}: empty id")
    if "," in sid or sid.splitlines() != [sid]:
        raise ManifestError(f"{where}: id {sid!r} holds a comma or a line break")
    return sid


def load_dataset(root_dir, split: str | None = None) -> Dataset:
    """Load a dataset directory; pass split='train'/'test' to filter rows."""
    if split is not None and split not in SPLITS:
        raise ManifestError(f"split must be one of {SPLITS}, got {split!r}")
    rows = _read_rows(os.path.join(root_dir, MANIFEST_NAME), {"id", "class_name", "split"})

    seen = set()
    class_names = set()
    for i, row in enumerate(rows, start=2):
        sid = _row_id(row, f"{MANIFEST_NAME} row {i}")
        if sid in seen:
            raise ManifestError(f"{MANIFEST_NAME} row {i}: duplicate id {sid!r}")
        seen.add(sid)
        if row["split"] not in SPLITS:
            raise ManifestError(
                f"{MANIFEST_NAME} row {i}: split must be one of {SPLITS}, "
                f"got {row['split']!r}"
            )
        class_names.add(row["class_name"])
    ordered_names = tuple(sorted(class_names))
    index_of = {name: i for i, name in enumerate(ordered_names)}

    samples = []
    for i, row in enumerate(rows, start=2):
        if split is not None and row["split"] != split:
            continue
        sid = row["id"].strip()
        path = os.path.join(root_dir, f"{sid}.ppm")
        pixels = read_ppm(path)
        bbox = _parse_bbox(row, i)
        try:
            sample = Sample(
                id=sid,
                image=image_from_uint8(pixels),
                label=index_of[row["class_name"]],
                bbox=bbox,
            )
        except IngestError as e:
            raise IngestError(f"{MANIFEST_NAME} row {i}: {e}") from None
        samples.append(sample)
    return Dataset(samples=tuple(samples), class_names=ordered_names, split=split)


def read_label_table(csv_path) -> tuple[dict[str, int], tuple[str, ...]]:
    """Read id -> class-index labels from a manifest without loading images.

    Class indices are assigned by sorting the class names in the file, the
    same rule load_dataset uses.  Returns (label_of_id, class_names).
    """
    rows = _read_rows(csv_path, {"id", "class_name"})
    for i, row in enumerate(rows, start=2):
        if row["class_name"] is None:
            raise ManifestError(f"{csv_path} row {i}: missing class_name")
    names = tuple(sorted({row["class_name"] for row in rows}))
    index_of = {name: i for i, name in enumerate(names)}
    table: dict[str, int] = {}
    for i, row in enumerate(rows, start=2):
        sid = _row_id(row, f"{csv_path} row {i}")
        if sid in table:
            raise ManifestError(f"{csv_path} row {i}: duplicate id {sid!r}")
        table[sid] = index_of[row["class_name"]]
    return table, names


def crop_bbox(sample: Sample) -> Sample:
    """Crop a sample to its bounding box; the result carries no bbox."""
    if sample.bbox is None:
        raise MissingBboxError(f"sample {sample.id!r} has no bounding box")
    x_min, y_min, x_max, y_max = sample.bbox
    cropped = sample.image[:, y_min:y_max, x_min:x_max].copy()
    return replace(sample, image=cropped, bbox=None)
