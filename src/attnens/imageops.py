"""Geometric image operations: bilinear resize and augmentation.

Images are [C, H, W] float arrays with values in [0, 1]; resize and augment
refuse an integer image, so a loaded uint8 image goes through
``data.float_image`` first (the trainer does so).  Resampling uses
half-pixel-center coordinates (resizing to the same size is the identity).
Augmentation applies rotation, optional horizontal flip, and width/height
shifts as one composed affine resample with bilinear interpolation and zero
fill outside the source, so no pixel is interpolated twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, encode_config


# The widest border _sample_bilinear pads on any side of an image.  It holds
# every corner that a 48x48 draw of the default AugmentConfig reaches, and it
# adds 27% to a 512x512 image; corners past it are clamped into its outer ring,
# which needs at least two cells.
_MAX_BORDER = 32


def _border(i0: np.ndarray, size: int) -> tuple[int, int]:
    """Border cells before and after one axis for the taps ``i0`` and ``i0 + 1``.

    The border reaches every tap, up to ``_MAX_BORDER`` cells a side.  Taps
    past that are clamped in place into the border's outer two cells, which
    hold the same zeros, so the taps ``i0`` and ``i0 + 1`` both stay outside.
    """
    lo, hi = int(i0.min()), int(i0.max())
    before = min(max(-lo, 0), _MAX_BORDER)
    after = min(max(hi + 2 - size, 0), _MAX_BORDER)
    if lo < -before or hi + 2 - size > after:
        np.clip(i0, -before, size + after - 2, out=i0)
    return before, after


def _zero_bordered(image: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
    """The image times 1 inside a border of its nearest edge pixels times 0.

    These are the products a masked corner gather takes, so a border cell
    holds exactly what the gather gives for a tap outside the image: a zero
    with the edge pixel's sign, or NaN for a NaN or infinite edge pixel.
    """
    c, h, w = image.shape
    (top, bottom), (left, right) = rows, cols
    one, zero = image.dtype.type(1), image.dtype.type(0)
    padded = np.empty((c, top + h + bottom, left + w + right), image.dtype)
    inner = slice(left, left + w)
    np.multiply(image, one, out=padded[:, top : top + h, inner])
    np.multiply(image[:, :1], zero, out=padded[:, :top, inner])
    np.multiply(image[:, -1:], zero, out=padded[:, top + h :, inner])
    np.multiply(padded[:, :, left : left + 1], zero, out=padded[:, :, :left])
    np.multiply(padded[:, :, left + w - 1 : left + w], zero, out=padded[:, :, left + w :])
    return padded


def _sample_bilinear(image: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Gather bilinear samples at float source coords, zero outside the image.

    Each of the four corners is one plain gather from the zero-bordered copy
    of the image, so no tap needs a clamp or an in-range mask of its own.
    """
    c, h, w = image.shape
    one = image.dtype.type(1)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    wx = (xs - x0).astype(image.dtype)
    wy = (ys - y0).astype(image.dtype)
    rows, cols = _border(y0, h), _border(x0, w)
    stride = cols[0] + w + cols[1]
    flat = _zero_bordered(image, rows, cols).reshape(c, -1)
    base = y0 * stride + x0 + (rows[0] * stride + cols[0])
    ax = one - wx
    top = ax * flat.take(base, axis=1) + wx * flat.take(base + 1, axis=1)
    bottom = ax * flat.take(base + stride, axis=1) + wx * flat.take(base + (stride + 1), axis=1)
    return (one - wy) * top + wy * bottom


def _check_float_image(image: np.ndarray) -> None:
    # The interpolation weights take the image's dtype, so an integer image
    # (a loaded uint8 one included) would resample with truncated weights.
    if image.ndim != 3:
        raise ShapeError(f"image must be [C, H, W], got shape {image.shape}")
    if not np.issubdtype(image.dtype, np.floating):
        raise ShapeError(
            f"image must be floating, got {image.dtype} (data.float_image scales uint8 pixels)"
        )


def _edge_taps(size: int, out_size: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both source indices and the weight of the second, along one resized axis."""
    src = (np.arange(out_size, dtype=np.float64) + 0.5) * (size / out_size) - 0.5
    src = np.clip(src, 0.0, size - 1.0)
    i0 = np.floor(src).astype(np.int64)
    return i0, np.minimum(i0 + 1, size - 1), (src - i0).astype(dtype)


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize [C, H, W] with half-pixel-center sampling and edge clamping.

    Separable: every source row is interpolated along x first, then the rows
    are mixed along y, which is the arithmetic of the four-corner form.
    """
    _check_float_image(image)
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output size must be >= 1, got {out_h}x{out_w}")
    _, h, w = image.shape
    if (out_h, out_w) == (h, w):
        return image.copy()
    one = image.dtype.type(1)
    x0, x1, wx = _edge_taps(w, out_w, image.dtype)
    y0, y1, wy = _edge_taps(h, out_h, image.dtype)
    # take, not fancy indexing, which would return a channels-last result.
    rows = (one - wx) * image.take(x0, axis=2) + wx * image.take(x1, axis=2)
    return (one - wy)[:, None] * rows.take(y0, axis=1) + wy[:, None] * rows.take(y1, axis=1)


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
    parameters directly (used to force specific transforms in tests).  A
    config that can only draw the identity (``AugmentConfig.none()``) skips
    the draw.
    Output values are clamped to [0, 1], except after an identity draw,
    which returns an unclamped copy of the image, as does an empty image.
    """
    _check_float_image(image)
    if draw is None:
        if cfg == AugmentConfig.none():
            return image.copy()
        draw = draw_augment_params(cfg, seed)
    if draw.is_identity() or image.size == 0:
        return image.copy()

    _, h, w = image.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    dx = draw.shift_x_frac * w
    dy = draw.shift_y_frac * h
    theta = np.deg2rad(draw.angle_deg)

    # Invert the forward chain rotate -> flip -> shift: undo the shift, undo
    # the flip, then rotate by -theta about the image center.  The terms
    # before the rotation depend on the column or the row alone.
    xs = np.arange(w, dtype=np.float64) - dx
    if draw.flip:
        xs = (w - 1) - xs
    xr = xs - cx
    yr = (np.arange(h, dtype=np.float64) - dy - cy)[:, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    xs_src = cos_t * xr + sin_t * yr + cx
    ys_src = -sin_t * xr + cos_t * yr + cy

    out = _sample_bilinear(image, xs_src, ys_src)
    return np.clip(out, 0.0, 1.0)


def augment_config_to_dict(cfg: AugmentConfig) -> dict:
    return encode_config(cfg)
