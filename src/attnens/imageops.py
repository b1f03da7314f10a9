"""Geometric image operations: bilinear resize, flips, and augmentation.

Images are [C, H, W] float arrays with values in [0, 1].  Resampling uses
half-pixel-center coordinates (resizing to the same size is the identity).
Augmentation applies rotation, optional horizontal flip, and width/height
shifts as one composed affine resample with bilinear interpolation and zero
fill outside the source, so no pixel is interpolated twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, decode_config, encode_config


def _sample_bilinear(image: np.ndarray, xs: np.ndarray, ys: np.ndarray, fill: str) -> np.ndarray:
    """Gather bilinear samples at float source coords; fill is 'zero' or 'edge'."""
    c, h, w = image.shape
    one = image.dtype.type(1)
    if fill == "edge":
        xs = np.clip(xs, 0.0, w - 1.0)
        ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    wx = (xs - x0).astype(image.dtype)
    wy = (ys - y0).astype(image.dtype)

    def corner(yi, xi):
        inside = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        vals = image[:, yi.clip(0, h - 1), xi.clip(0, w - 1)]
        if fill == "zero":
            vals = vals * inside.astype(image.dtype)
        return vals

    top = (one - wx) * corner(y0, x0) + wx * corner(y0, x0 + 1)
    bottom = (one - wx) * corner(y0 + 1, x0) + wx * corner(y0 + 1, x0 + 1)
    return (one - wy) * top + wy * bottom


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize [C, H, W] with half-pixel-center sampling and edge clamping."""
    if image.ndim != 3:
        raise ShapeError(f"image must be [C, H, W], got shape {image.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output size must be >= 1, got {out_h}x{out_w}")
    _, h, w = image.shape
    if (out_h, out_w) == (h, w):
        return image.copy()
    src_y = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    src_x = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    ys, xs = np.meshgrid(src_y, src_x, indexing="ij")
    return _sample_bilinear(image, xs, ys, fill="edge")


def hflip(image: np.ndarray) -> np.ndarray:
    """Mirror a [C, H, W] image left-right; exact involution."""
    if image.ndim != 3:
        raise ShapeError(f"image must be [C, H, W], got shape {image.shape}")
    return image[:, :, ::-1].copy()


@dataclass(frozen=True)
class AugmentConfig:
    """Parameter ranges for random augmentation.

    Rotation angles are drawn from Uniform[-rotation_deg, +rotation_deg],
    horizontal flips fire with probability 0.5 when enabled, and shifts are
    drawn as Uniform[-frac, +frac] fractions of each image dimension.
    """

    rotation_deg: float = 23.0
    h_flip: bool = True
    width_shift_frac: float = 0.2
    height_shift_frac: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.rotation_deg <= 180.0:
            raise ConfigError(f"rotation_deg must lie in [0, 180], got {self.rotation_deg}")
        for label, frac in (
            ("width_shift_frac", self.width_shift_frac),
            ("height_shift_frac", self.height_shift_frac),
        ):
            if not 0.0 <= frac <= 1.0:
                raise ConfigError(f"{label} must lie in [0, 1], got {frac}")

    @classmethod
    def none(cls) -> "AugmentConfig":
        return cls(rotation_deg=0.0, h_flip=False, width_shift_frac=0.0, height_shift_frac=0.0)


@dataclass(frozen=True)
class AugmentDraw:
    """One concrete sample of augmentation parameters."""

    angle_deg: float
    flip: bool
    shift_x_frac: float
    shift_y_frac: float

    def is_identity(self) -> bool:
        return (
            self.angle_deg == 0.0
            and not self.flip
            and self.shift_x_frac == 0.0
            and self.shift_y_frac == 0.0
        )


def draw_augment_params(cfg: AugmentConfig, seed: int) -> AugmentDraw:
    """Sample augmentation parameters; the draw order is part of the contract."""
    rng = np.random.default_rng(seed)
    angle = float(rng.uniform(-cfg.rotation_deg, cfg.rotation_deg))
    flip = bool(rng.random() < 0.5) and cfg.h_flip
    sx = float(rng.uniform(-cfg.width_shift_frac, cfg.width_shift_frac))
    sy = float(rng.uniform(-cfg.height_shift_frac, cfg.height_shift_frac))
    return AugmentDraw(angle_deg=angle, flip=flip, shift_x_frac=sx, shift_y_frac=sy)


def augment(
    image: np.ndarray,
    cfg: AugmentConfig,
    seed: int,
    draw: AugmentDraw | None = None,
) -> np.ndarray:
    """Apply rotation, then flip, then shifts, as a single bilinear resample.

    Deterministic in (image, cfg, seed); pass ``draw`` to pin the sampled
    parameters directly (used to force specific transforms in tests).
    Output values are clamped to [0, 1].
    """
    if image.ndim != 3:
        raise ShapeError(f"image must be [C, H, W], got shape {image.shape}")
    if draw is None:
        draw = draw_augment_params(cfg, seed)
    if draw.is_identity():
        return image.copy()

    _, h, w = image.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    dx = draw.shift_x_frac * w
    dy = draw.shift_y_frac * h
    theta = np.deg2rad(draw.angle_deg)

    ys_out, xs_out = np.meshgrid(
        np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij"
    )
    # Invert the forward chain rotate -> flip -> shift: undo the shift, undo
    # the flip, then rotate by -theta about the image center.
    xs = xs_out - dx
    ys = ys_out - dy
    if draw.flip:
        xs = (w - 1) - xs
    xr = xs - cx
    yr = ys - cy
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    xs_src = cos_t * xr + sin_t * yr + cx
    ys_src = -sin_t * xr + cos_t * yr + cy

    out = _sample_bilinear(image, xs_src, ys_src, fill="zero")
    return np.clip(out, 0.0, 1.0)


def augment_config_to_dict(cfg: AugmentConfig) -> dict:
    return encode_config(cfg)


def augment_config_from_dict(d) -> AugmentConfig:
    return decode_config(AugmentConfig, d, "augment config")
