"""Synthetic image classification tasks built from geometric primitives.

Each class is a recipe (shape kind, object count): the first eight classes
are one disk, square, cross, triangle, ring, diamond, horizontal bar, and
vertical bar; the next eight repeat the shapes with two objects, and so on.
Object size and position are randomized per sample, while object hue is
keyed to the class (palette entry ``(class_offset + class) % 6``, jittered
per object), so color is an informative cue alongside shape and count: a
task of at most six classes can be told apart by color alone.
``class_offset`` selects a disjoint band of recipes, which is how a source
task and a transfer-target task avoid sharing any class.

Generation is a pure function of the spec: the same spec always produces the
same images, split assignment, and bounding boxes (drawn around the first
object of each sample).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .data import Dataset, Sample, channel_major
from .errors import ConfigError, encode_config
from .ppm import write_ppm
from .seeding import rng_for

SHAPE_KINDS = ("disk", "square", "cross", "triangle", "ring", "diamond", "hbar", "vbar")

_PALETTE = np.array(
    [
        [0.90, 0.20, 0.20],
        [0.20, 0.85, 0.25],
        [0.25, 0.35, 0.95],
        [0.92, 0.85, 0.20],
        [0.85, 0.25, 0.80],
        [0.20, 0.82, 0.85],
    ]
)


@dataclass(frozen=True)
class SynthSpec:
    """Task description: classes, samples per class, image size, and seed.

    ``per_class`` counts all samples of a class; the first
    ``round(train_fraction * per_class)`` go to the train split.
    """

    num_classes: int
    per_class: int
    image_size: int = 48
    seed: int = 0
    train_fraction: float = 0.75
    class_offset: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.per_class < 1:
            raise ConfigError(f"per_class must be >= 1, got {self.per_class}")
        if self.image_size < 16:
            raise ConfigError(f"image_size must be >= 16, got {self.image_size}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if self.seed < 0 or self.class_offset < 0:
            raise ConfigError("seed and class_offset must be non-negative")


def class_recipe(index: int) -> tuple[str, int]:
    """Map an absolute class index to (shape kind, object count)."""
    return SHAPE_KINDS[index % len(SHAPE_KINDS)], 1 + index // len(SHAPE_KINDS)


def class_name(index: int) -> str:
    kind, count = class_recipe(index)
    return f"{kind}{count}"


def _shape_mask(kind: str, yy, xx, cy: float, cx: float, r: float):
    dx = xx - cx
    dy = yy - cy
    if kind == "disk":
        return dx * dx + dy * dy <= r * r
    if kind == "square":
        return np.maximum(np.abs(dx), np.abs(dy)) <= 0.82 * r
    if kind == "cross":
        arm, span = 0.38 * r, 1.15 * r
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= span)) | (
            (np.abs(dy) <= arm) & (np.abs(dx) <= span)
        )
    if kind == "triangle":
        inside_y = (dy >= -r) & (dy <= 0.9 * r)
        return inside_y & (np.abs(dx) <= 0.45 * (dy + r))
    if kind == "ring":
        d2 = dx * dx + dy * dy
        return (d2 <= r * r) & (d2 >= 0.45 * r * r)
    if kind == "diamond":
        return np.abs(dx) + np.abs(dy) <= 1.2 * r
    if kind == "hbar":
        return (np.abs(dy) <= 0.32 * r) & (np.abs(dx) <= 1.35 * r)
    if kind == "vbar":
        return (np.abs(dx) <= 0.32 * r) & (np.abs(dy) <= 1.35 * r)
    raise ConfigError(f"unknown shape kind {kind!r}")


def _render(rng: np.random.Generator, kind: str, count: int, size: int, color_index: int):
    """Draw one sample; returns (uint8 [H,W,3] pixels, bbox of first object).

    Object hue is keyed to the class (jittered per object) so that color is an
    informative cue alongside shape and count.
    """
    base = rng.uniform(0.03, 0.10)
    img = np.clip(base + rng.uniform(-0.03, 0.03, size=(size, size, 3)), 0.0, 1.0)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    bbox = None
    lane = size / count
    for obj in range(count):
        if count == 1:
            r = rng.uniform(0.12, 0.18) * size
        else:
            r = rng.uniform(0.095, 0.13) * size
        margin = 1.35 * r + 2.0
        cx = rng.uniform(obj * lane + margin, (obj + 1) * lane - margin)
        cy = rng.uniform(margin, size - margin)
        color = np.clip(
            _PALETTE[color_index % len(_PALETTE)] + rng.uniform(-0.10, 0.10, 3),
            0.15,
            1.0,
        )
        mask = _shape_mask(kind, yy, xx, cy, cx, r)
        img[mask] = color
        if obj == 0:
            ys, xs = np.nonzero(mask)
            bbox = (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    return pixels, bbox


def _generate(spec: SynthSpec):
    """Yield (sample_id, class_name, split, pixels, bbox) in manifest order."""
    n_train = int(round(spec.train_fraction * spec.per_class))
    n_train = min(max(n_train, 0), spec.per_class)
    for k in range(spec.num_classes):
        absolute = spec.class_offset + k
        kind, count = class_recipe(absolute)
        name = class_name(absolute)
        for i in range(spec.per_class):
            rng = rng_for(spec.seed, "synth", absolute, i)
            pixels, bbox = _render(rng, kind, count, spec.image_size, absolute)
            split = "train" if i < n_train else "test"
            yield f"{name}_{i:04d}", name, split, pixels, bbox


def synth_dataset(spec: SynthSpec, split: str | None = None) -> Dataset:
    """Generate the task in memory; pass split='train'/'test' to filter.

    Images are stored as ``load_dataset`` stores the written PPMs: uint8
    ``[3, H, W]`` arrays (``data.float_image`` scales them).
    """
    if split is not None and split not in ("train", "test"):
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
    names = tuple(sorted(class_name(spec.class_offset + k) for k in range(spec.num_classes)))
    index_of = {n: i for i, n in enumerate(names)}
    samples = []
    for sid, cname, row_split, pixels, bbox in _generate(spec):
        if split is not None and row_split != split:
            continue
        samples.append(
            Sample(id=sid, image=channel_major(pixels), label=index_of[cname], bbox=bbox)
        )
    return Dataset(samples=tuple(samples), class_names=names, split=split)


def write_synth_dataset(spec: SynthSpec, out_dir) -> int:
    """Materialize the task as PPM files plus labels.csv; returns sample count."""
    os.makedirs(out_dir, exist_ok=True)
    count = 0
    with atomic_write(os.path.join(out_dir, "labels.csv"), "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["id", "class_name", "split", "x_min", "y_min", "x_max", "y_max"])
        for sid, cname, split, pixels, bbox in _generate(spec):
            write_ppm(os.path.join(out_dir, f"{sid}.ppm"), pixels)
            writer.writerow([sid, cname, split, *bbox])
            count += 1
    return count


def synth_spec_to_dict(spec: SynthSpec) -> dict:
    return encode_config(spec)
