"""Dataset ingestion: manifest parsing, image loading, bbox cropping.

A dataset directory contains PPM images plus a ``labels.csv`` manifest with
columns ``id, class_name, split`` and optional ``x_min, y_min, x_max, y_max``
bounding boxes (pixel coordinates, max-exclusive).  Class indices are
assigned by sorting the class names that appear anywhere in the manifest, so
train and test splits always share one label space.  Sample order follows
manifest order.

Loaded images keep the decoded bytes: a C-contiguous ``[3, H, W]`` uint8
array, a quarter of the float32 form's memory.  ``float_image`` scales one
to float32 in [0, 1] where a batch is built (``trainer.train`` and
``trainer.evaluate``) as ``astype(float32) / float32(255)``, so every batch
holds the same bits as if the float image had been stored.
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
    """One labeled image plus an optional bbox.

    ``image`` is [C, H, W]: uint8 pixels (as loaded, scaled by 1/255 when
    batched) or a float array in [0, 1], which batches use unchanged.  Any
    other dtype is refused, since its values would reach the network
    unscaled.
    """

    id: str
    image: np.ndarray
    label: int
    bbox: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        if self.image.ndim != 3:
            raise IngestError(f"sample {self.id!r}: image must be [C, H, W]")
        if self.image.dtype != np.uint8 and not np.issubdtype(self.image.dtype, np.floating):
            raise IngestError(
                f"sample {self.id!r}: image dtype {self.image.dtype} is neither uint8 nor floating"
            )
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


def channel_major(pixels: np.ndarray) -> np.ndarray:
    """[H, W, 3] uint8 pixels as the stored C-contiguous [3, H, W] uint8 image.

    Channel-major, so every plane is contiguous and a stacked batch is NCHW
    in memory, as the convs and augmentation read it.
    """
    return np.ascontiguousarray(pixels.transpose(2, 0, 1))


def float_image(image: np.ndarray) -> np.ndarray:
    """A stored image as the network reads it: uint8 scaled to float32 in [0, 1].

    A float image is returned unchanged.  The layout is kept, so a
    C-contiguous [3, H, W] image gives a C-contiguous result.
    """
    if image.dtype != np.uint8:
        return image
    return image.astype(np.float32) / np.float32(255.0)


def _parse_bbox(row: dict, where: str):
    values = [row.get(c, "") or "" for c in _BBOX_COLUMNS]
    if all(v.strip() == "" for v in values):
        return None
    try:
        return tuple(int(v) for v in values)
    except ValueError:
        raise ManifestError(f"{where}: bbox columns must be integers or empty") from None


def _read_manifest(path, with_split: bool) -> tuple[dict[str, tuple[str, dict]], dict[str, int]]:
    """The checked rows of the CSV manifest at ``path``, and its class indices.

    The rows come back in file order as ``{id: (where, row)}``, where
    ``where`` names the file and the row for errors.  The header must name ``id``,
    ``class_name`` and, ``with_split``, ``split``, whose values must be one
    of ``SPLITS``; a row too short to hold every required column is refused
    (the reader fills the missing fields with ``None``), and so is a
    repeated id.  Class indices follow the sorted class names of every row.

    ``predict`` writes ids unquoted into its CSV and ``read_matrix`` splits
    that file with ``str.splitlines``, so an id holding a comma or anything
    splitlines breaks on (a newline, but also a vertical tab, a form feed or
    U+2028) is refused here rather than breaking that file later.  So is an
    id holding a NUL byte, which no file name can contain.
    """
    required = {"id", "class_name", "split"} if with_split else {"id", "class_name"}
    try:
        f = open(path, newline="")
    except OSError as e:
        raise ManifestError(f"{path}: {e}") from None
    with f:
        try:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise ManifestError(f"{path}: header must include columns {sorted(required)}")
            rows = list(reader)
        except (UnicodeDecodeError, csv.Error) as e:
            raise ManifestError(f"{path}: {e}") from e
    checked = {}
    for i, row in enumerate(rows, start=2):
        where = f"{path} row {i}"
        missing = sorted(c for c in required if row[c] is None)
        if missing:
            raise ManifestError(f"{where}: missing {', '.join(missing)}")
        sid = row["id"].strip()
        if not sid:
            raise ManifestError(f"{where}: empty id")
        if "," in sid or sid.splitlines() != [sid]:
            raise ManifestError(f"{where}: id {sid!r} holds a comma or a line break")
        if "\x00" in sid:
            raise ManifestError(f"{where}: id {sid!r} holds a NUL byte")
        if sid in checked:
            raise ManifestError(f"{where}: duplicate id {sid!r}")
        if with_split and row["split"] not in SPLITS:
            raise ManifestError(f"{where}: split must be one of {SPLITS}, got {row['split']!r}")
        checked[sid] = (where, row)
    names = sorted({row["class_name"] for row in rows})
    return checked, {name: k for k, name in enumerate(names)}


def load_dataset(root_dir, split: str | None = None) -> Dataset:
    """Load a dataset directory; pass split='train'/'test' to filter rows."""
    if split is not None and split not in SPLITS:
        raise ManifestError(f"split must be one of {SPLITS}, got {split!r}")
    rows, index_of = _read_manifest(os.path.join(root_dir, MANIFEST_NAME), with_split=True)
    samples = []
    for sid, (where, row) in rows.items():
        if split is not None and row["split"] != split:
            continue
        pixels = read_ppm(os.path.join(root_dir, f"{sid}.ppm"))
        bbox = _parse_bbox(row, where)
        try:
            sample = Sample(
                id=sid,
                image=channel_major(pixels),
                label=index_of[row["class_name"]],
                bbox=bbox,
            )
        except IngestError as e:
            raise IngestError(f"{where}: {e}") from None
        samples.append(sample)
    return Dataset(samples=tuple(samples), class_names=tuple(index_of), split=split)


def read_label_table(csv_path) -> tuple[dict[str, int], tuple[str, ...]]:
    """Read id -> class-index labels from a manifest without loading images.

    The rows are checked and the class indices assigned as ``load_dataset``
    does, by the same code; only the ``split`` column is optional.  Returns
    (label_of_id, class_names).
    """
    rows, index_of = _read_manifest(csv_path, with_split=False)
    return {sid: index_of[row["class_name"]] for sid, (_, row) in rows.items()}, tuple(index_of)


def crop_bbox(sample: Sample) -> Sample:
    """Crop a sample to its bounding box; the result carries no bbox.

    The crop keeps the image's dtype: a loaded image is cropped as uint8.
    """
    if sample.bbox is None:
        raise MissingBboxError(f"sample {sample.id!r} has no bounding box")
    x_min, y_min, x_max, y_max = sample.bbox
    cropped = sample.image[:, y_min:y_max, x_min:x_max].copy()
    return replace(sample, image=cropped, bbox=None)
