"""Resize and augmentation match the four-corner gather oracles bit for bit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnens.data import float_image
from attnens.experiments import BENCH_AUGMENT
from attnens.imageops import (
    AugmentConfig,
    AugmentDraw,
    augment,
    draw_augment_params,
    resize_bilinear,
)
from reference import augment_gather, resize_bilinear_gather

DTYPES = st.sampled_from([np.float32, np.float64])
SIDES = st.integers(1, 64)


def random_image(seed, dtype, c, h, w, non_finite):
    # Values well outside [0, 1], negative ones included, so that the sign of
    # a masked zero and the clamp both show in the bits.
    rng = np.random.default_rng(seed)
    image = (rng.standard_normal((c, h, w)) * 2.0).astype(dtype)
    if non_finite:
        image.flat[rng.integers(0, image.size, 3)] = [np.inf, -np.inf, np.nan]
    return image


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), dtype=DTYPES, c=st.integers(1, 3),
       h=SIDES, w=SIDES, out_h=SIDES, out_w=SIDES, non_finite=st.booleans())
@example(seed=0, dtype=np.float32, c=3, h=1, w=1, out_h=64, out_w=64, non_finite=False)
@example(seed=1, dtype=np.float64, c=3, h=64, w=64, out_h=1, out_w=1, non_finite=False)
@example(seed=2, dtype=np.float32, c=1, h=17, w=40, out_h=48, out_w=9, non_finite=True)
def test_resize_matches_gather(seed, dtype, c, h, w, out_h, out_w, non_finite):
    image = random_image(seed, dtype, c, h, w, non_finite)
    with np.errstate(invalid="ignore"):
        assert_same_bits(resize_bilinear(image, out_h, out_w),
                         resize_bilinear_gather(image, out_h, out_w))


ANGLES = st.one_of(st.sampled_from([0.0, 180.0, -180.0, 90.0]), st.floats(-180.0, 180.0))
SHIFTS = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
DRAWS = st.builds(AugmentDraw, angle_deg=ANGLES, flip=st.booleans(),
                  shift_x_frac=SHIFTS, shift_y_frac=SHIFTS)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), dtype=DTYPES, c=st.integers(1, 3),
       h=SIDES, w=SIDES, draw=DRAWS, non_finite=st.booleans())
@example(seed=3, dtype=np.float32, c=3, h=5, w=7, draw=AugmentDraw(0.0, False, 0.0, 0.0),
         non_finite=False)
@example(seed=4, dtype=np.float64, c=3, h=9, w=6, draw=AugmentDraw(180.0, True, 1.0, -1.0),
         non_finite=False)
@example(seed=5, dtype=np.float32, c=2, h=1, w=1, draw=AugmentDraw(-180.0, True, 0.0, 0.5),
         non_finite=True)
def test_augment_matches_gather(seed, dtype, c, h, w, draw, non_finite):
    image = random_image(seed, dtype, c, h, w, non_finite)
    with np.errstate(invalid="ignore"):
        assert_same_bits(
            augment(image, AugmentConfig(), seed=0, draw=draw),
            augment_gather(image, draw.angle_deg, draw.flip, draw.shift_x_frac, draw.shift_y_frac),
        )


@pytest.mark.parametrize("cfg", [BENCH_AUGMENT, AugmentConfig()], ids=["bench", "default"])
def test_augment_matches_gather_on_pipeline_draws(cfg):
    # The draws and the 48x48 uint8-scaled images the training pipeline
    # runs, pinned by seed rather than left to the examples drawn above.
    rng = np.random.default_rng(20)
    for seed in range(200):
        image = float_image(rng.integers(0, 256, (3, 48, 48), dtype=np.uint8))
        draw = draw_augment_params(cfg, seed)
        assert_same_bits(
            augment(image, cfg, seed),
            augment_gather(image, draw.angle_deg, draw.flip, draw.shift_x_frac, draw.shift_y_frac),
        )


@pytest.mark.parametrize("shape", [(3, 0, 5), (0, 4, 4)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_augment_keeps_an_empty_image_empty(shape, dtype):
    out = augment(np.zeros(shape, dtype), AugmentConfig(), seed=0,
                  draw=AugmentDraw(10.0, True, 0.1, -0.1))
    assert out.shape == shape and out.dtype == dtype


@pytest.mark.parametrize(
    "draw",
    [AugmentDraw(180.0, True, 1.0, -1.0), draw_augment_params(BENCH_AUGMENT, 3)],
    ids=["extreme", "bench"],
)
def test_augment_memory_is_bounded(draw):
    # The resample holds a few image-sized arrays at once, 10.67x the
    # image's bytes at 512x512 with clamped and masked corners.  A border
    # wide enough for every draw would take several times the image.
    image = np.random.default_rng(0).random((3, 512, 512), dtype=np.float32)
    tracemalloc.start()
    try:
        augment(image, AugmentConfig(), seed=0, draw=draw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11 * image.nbytes
