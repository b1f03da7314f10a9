"""Dataset ingestion, PPM I/O, resizing, augmentation, and synthesis."""

import tracemalloc

import numpy as np
import pytest

from attnens.data import (
    Dataset,
    Sample,
    channel_major,
    crop_bbox,
    float_image,
    load_dataset,
    read_label_table,
)
from attnens.errors import (
    ConfigError,
    IngestError,
    ManifestError,
    MissingBboxError,
    ShapeError,
    decode_config,
)
from attnens.imageops import (
    AugmentConfig,
    AugmentDraw,
    augment,
    augment_config_to_dict,
    draw_augment_params,
    resize_bilinear,
)
import attnens.imageops as imageops_module
import attnens.ppm as ppm_module
from attnens.ppm import read_ppm, write_ppm
from attnens.synth import SynthSpec, class_recipe, synth_dataset, write_synth_dataset
from reference import (
    augment_gather,
    hflip,
    image_from_uint8,
    resize_bilinear_gather,
    resize_bilinear_naive,
)


def count_ppm_reads(monkeypatch):
    """Record (method, bytes returned) for each read or readline of read_ppm's file."""
    calls = []

    class Counting:
        def __init__(self, f):
            self._f = f

        def read(self, size=-1):
            data = self._f.read(size)
            calls.append(("read", len(data)))
            return data

        def readline(self, size=-1):
            data = self._f.readline(size)
            calls.append(("readline", len(data)))
            return data

        def __getattr__(self, name):
            return getattr(self._f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

    monkeypatch.setattr(ppm_module, "open", lambda *a: Counting(open(*a)), raising=False)
    return calls


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        p = tmp_path / "img.ppm"
        write_ppm(p, pixels)
        np.testing.assert_array_equal(read_ppm(p), pixels)

    def test_header_format(self, tmp_path):
        pixels = np.zeros((2, 3, 3), dtype=np.uint8)
        p = tmp_path / "img.ppm"
        write_ppm(p, pixels)
        assert p.read_bytes().startswith(b"P6\n3 2\n255\n")

    def test_comments_and_whitespace_tolerated(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6 # comment\n# another\n 2 1\n255\n" + bytes(6))
        img = read_ppm(p)
        assert img.shape == (1, 2, 3)

    def test_rejects_p3(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(IngestError):
            read_ppm(p)

    def test_rejects_wrong_maxval(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(IngestError):
            read_ppm(p)

    def test_rejects_short_payload(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        with pytest.raises(IngestError):
            read_ppm(p)

    def test_rejects_trailing_bytes(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes(4))
        with pytest.raises(IngestError):
            read_ppm(p)

    def test_rejects_size_beyond_file_before_reading(self, tmp_path):
        # 300000 x 300000 x 3 bytes would need a 270 GB read buffer.
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n300000 300000\n255\n" + bytes(12))
        with pytest.raises(IngestError, match="truncated"):
            read_ppm(p)

    def test_overlong_header_field_stops_reading_early(self, tmp_path, monkeypatch):
        # A corrupt 1 MB digit run is refused after a few bytes, not parsed.
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n" + b"9" * 1_000_000 + b" 1\n255\n" + bytes(3))
        calls = count_ppm_reads(monkeypatch)
        with pytest.raises(IngestError, match="header field longer"):
            read_ppm(p)
        assert sum(n for _, n in calls) <= 3 + ppm_module.MAX_TOKEN_BYTES + 1

    def test_long_comment_is_skipped_in_chunks(self, tmp_path, monkeypatch):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n# " + b"c" * 4_000_000 + b"\n1 1\n255\n" + bytes(3))
        calls = count_ppm_reads(monkeypatch)
        assert read_ppm(p).shape == (1, 1, 3)
        assert len(calls) < 200

    def test_longest_header_fields_accepted(self, tmp_path):
        p = tmp_path / "a.ppm"
        field = b"0" * (20 - 1) + b"1"
        p.write_bytes(b"P6\n" + field + b" " + field + b"\n255\n" + bytes(3))
        assert read_ppm(p).shape == (1, 1, 3)

    def test_nul_byte_in_path_is_ingest_error(self, tmp_path):
        with pytest.raises(IngestError, match="null byte"):
            read_ppm(str(tmp_path / "a\x00b.ppm"))

    def test_write_rejects_non_uint8(self, tmp_path):
        with pytest.raises(Exception):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=np.float32))


class TestManifest:
    def write_dataset(self, tmp_path, rows, with_bbox=False):
        header = "id,class_name,split"
        if with_bbox:
            header += ",x_min,y_min,x_max,y_max"
        (tmp_path / "labels.csv").write_text(header + "\n" + "\n".join(rows) + "\n")
        for row in rows:
            sid = row.split(",")[0]
            if sid:
                write_ppm(tmp_path / f"{sid}.ppm", np.zeros((8, 8, 3), dtype=np.uint8))

    def test_loads_and_sorts_class_names(self, tmp_path):
        self.write_dataset(tmp_path, ["a1,zebra,train", "b1,apple,test", "c1,zebra,test"])
        ds = load_dataset(tmp_path)
        assert ds.class_names == ("apple", "zebra")
        assert len(ds) == 3

    def test_split_filter(self, tmp_path):
        self.write_dataset(tmp_path, ["a1,x,train", "b1,x,test"])
        assert [s.id for s in load_dataset(tmp_path, split="train").samples] == ["a1"]

    def test_class_names_cover_all_splits(self, tmp_path):
        # a class present only in the train rows still gets an index in test view
        self.write_dataset(tmp_path, ["a1,only_train,train", "b1,shared,test"])
        ds = load_dataset(tmp_path, split="test")
        assert ds.class_names == ("only_train", "shared")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IngestError):
            load_dataset(tmp_path)

    def test_missing_column(self, tmp_path):
        (tmp_path / "labels.csv").write_text("id,split\na,train\n")
        with pytest.raises(ManifestError):
            load_dataset(tmp_path)

    def test_row_missing_a_required_column_names_it(self, tmp_path):
        # csv fills a short row with None, which once reached sorted(class_names).
        (tmp_path / "labels.csv").write_text("id,split,class_name\na,train,x\nb,train\n")
        with pytest.raises(ManifestError, match="row 3: missing class_name"):
            load_dataset(tmp_path)

    def test_duplicate_id_reports_row(self, tmp_path):
        self.write_dataset(tmp_path, ["a1,x,train", "a1,x,test"])
        with pytest.raises(ManifestError, match="row 3"):
            load_dataset(tmp_path)

    def test_empty_id_rejected(self, tmp_path):
        self.write_dataset(tmp_path, [",x,train"])
        with pytest.raises(ManifestError):
            load_dataset(tmp_path)

    def test_bad_split_value(self, tmp_path):
        self.write_dataset(tmp_path, ["a1,x,validation"])
        with pytest.raises(ManifestError):
            load_dataset(tmp_path)

    def test_missing_image_file(self, tmp_path):
        (tmp_path / "labels.csv").write_text("id,class_name,split\nghost,x,train\n")
        with pytest.raises(IngestError):
            load_dataset(tmp_path)

    def test_bbox_columns_all_or_none(self, tmp_path):
        (tmp_path / "labels.csv").write_text("id,class_name,split,x_min,y_min\na,x,train,0,0\n")
        write_ppm(tmp_path / "a.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        with pytest.raises(ManifestError):
            load_dataset(tmp_path)

    def test_bbox_parsed(self, tmp_path):
        self.write_dataset(tmp_path, ["a1,x,train,1,2,5,6"], with_bbox=True)
        ds = load_dataset(tmp_path)
        assert ds.samples[0].bbox == (1, 2, 5, 6)

    def test_non_utf8_manifest_is_manifest_error(self, tmp_path):
        self.write_dataset(tmp_path, ["a1,x,train"])
        (tmp_path / "labels.csv").write_bytes(b"id,class_name,split\na1,c\xffat,train\n")
        with pytest.raises(ManifestError) as info:
            load_dataset(tmp_path)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_non_utf8_label_table_is_manifest_error(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_bytes(b"id,class_name\na,c\xffat\n")
        with pytest.raises(ManifestError) as info:
            read_label_table(p)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_field_over_csv_limit_is_manifest_error(self, tmp_path):
        # The csv module refuses a field over 131072 characters with csv.Error.
        self.write_dataset(tmp_path, ["a1,x,train"])
        (tmp_path / "labels.csv").write_text("id,class_name,split\na1," + "x" * 200_000 + ",train\n")
        with pytest.raises(ManifestError, match="field larger"):
            load_dataset(tmp_path)
        with pytest.raises(ManifestError, match="field larger"):
            read_label_table(tmp_path / "labels.csv")

    @pytest.mark.parametrize(
        "sid",
        ["a,b", "a\nb", "a\rb", *(f"a{ch}b" for ch in "\v\f\x1c\x1d\x1e\x85\u2028\u2029")],
    )
    def test_id_that_breaks_prediction_csv_names_row(self, tmp_path, sid):
        # The manifest is valid CSV; the id, written unquoted by predict, is not.
        write_ppm(tmp_path / "a1.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        (tmp_path / "labels.csv").write_text(
            f'id,class_name,split\na1,x,train\n"{sid}",x,test\n', newline=""
        )
        with pytest.raises(ManifestError, match="row 3"):
            load_dataset(tmp_path)
        with pytest.raises(ManifestError, match="row 3"):
            read_label_table(tmp_path / "labels.csv")

    def test_id_with_nul_byte_names_row(self, tmp_path):
        # No file name can hold a NUL byte, so open() would raise ValueError.
        write_ppm(tmp_path / "a1.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        (tmp_path / "labels.csv").write_text("id,class_name,split\na1,x,train\na\x00b,x,test\n")
        with pytest.raises(ManifestError, match="row 3"):
            load_dataset(tmp_path)
        with pytest.raises(ManifestError, match="row 3"):
            read_label_table(tmp_path / "labels.csv")

    def test_label_table_short_row_names_it(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("id,class_name,split\na,cat,test\nb\n")
        with pytest.raises(ManifestError, match="row 3"):
            read_label_table(p)


class TestUint8Storage:
    def write_pixels(self, root, count, size, seed=0):
        rng = np.random.default_rng(seed)
        pixels = {}
        rows = ["id,class_name,split"]
        for i in range(count):
            sid = f"s{i:03d}"
            pixels[sid] = rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
            write_ppm(root / f"{sid}.ppm", pixels[sid])
            rows.append(f"{sid},c{i % 4},train")
        (root / "labels.csv").write_text("\n".join(rows) + "\n")
        return pixels

    def test_loaded_images_are_channel_major_uint8(self, tmp_path):
        pixels = self.write_pixels(tmp_path, 5, 12)
        for s in load_dataset(tmp_path).samples:
            assert s.image.dtype == np.uint8 and s.image.flags.c_contiguous
            assert s.image.shape == (3, 12, 12)
            assert float_image(s.image).tobytes() == image_from_uint8(pixels[s.id]).tobytes()

    def test_synth_images_are_channel_major_uint8(self):
        ds = synth_dataset(SynthSpec(num_classes=2, per_class=2, image_size=16, seed=0))
        for s in ds.samples:
            assert s.image.dtype == np.uint8 and s.image.flags.c_contiguous
            assert s.image.shape == (3, 16, 16)

    def test_load_holds_about_one_byte_per_pixel(self, tmp_path):
        # 64 images of 48x48x3 bytes; float32 storage held about 4x this.
        self.write_pixels(tmp_path, 64, 48)
        tracemalloc.start()
        try:
            ds = load_dataset(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == 64
        assert peak <= 1.25 * 64 * 48 * 48 * 3


class TestSamplesAndCrop:
    def make_sample(self, bbox):
        img = np.arange(3 * 6 * 8, dtype=np.float32).reshape(3, 6, 8) / 255.0
        return Sample(id="s", image=img, label=0, bbox=bbox)

    def test_crop_extracts_box(self):
        s = self.make_sample((2, 1, 6, 4))  # x0,y0,x1,y1 with exclusive max
        c = crop_bbox(s)
        assert c.image.shape == (3, 3, 4)
        np.testing.assert_array_equal(c.image, s.image[:, 1:4, 2:6])
        assert c.bbox is None

    def test_crop_without_bbox_raises(self):
        with pytest.raises(MissingBboxError):
            crop_bbox(self.make_sample(None))

    def test_bbox_bounds_validated(self):
        with pytest.raises(IngestError):
            self.make_sample((0, 0, 9, 4))  # x_max exceeds width

    def test_image_from_uint8_scales_and_transposes(self):
        pixels = np.zeros((4, 5, 3), dtype=np.uint8)
        pixels[0, 0] = (255, 0, 127)
        img = image_from_uint8(pixels)
        assert img.shape == (3, 4, 5)
        assert img.dtype == np.float32
        np.testing.assert_allclose(img[:, 0, 0], [1.0, 0.0, 127 / 255.0])

    @staticmethod
    def channels_last_image(pixels):
        # The same values as a [3, H, W] view of [H, W, 3] storage.
        return (pixels.astype(np.float32) / np.float32(255.0)).transpose(2, 0, 1)

    @pytest.mark.parametrize("kind", ["every_byte", "random"])
    def test_image_from_uint8_is_channel_major_with_the_same_bits(self, kind):
        if kind == "every_byte":
            pixels = np.arange(256 * 3, dtype=np.uint16).reshape(16, 16, 3).astype(np.uint8)
        else:
            pixels = np.random.default_rng(11).integers(0, 256, (37, 29, 3), dtype=np.uint8)
        img = image_from_uint8(pixels)
        stored = float_image(channel_major(pixels))
        assert img.flags.c_contiguous and stored.flags.c_contiguous
        old = self.channels_last_image(pixels)
        assert img.dtype == old.dtype == stored.dtype and img.shape == old.shape == stored.shape
        assert img.tobytes() == old.tobytes() == stored.tobytes()

    def test_channel_major_images_resize_augment_and_crop_with_the_same_bits(self):
        # Loaded images changed layout, not values: resize, augmentation and
        # --crop give the bits of the old channels-last view and of the
        # four-corner gather oracles, and resizing keeps the planes contiguous.
        pixels = np.random.default_rng(12).integers(0, 256, (40, 52, 3), dtype=np.uint8)
        new, old = image_from_uint8(pixels), self.channels_last_image(pixels)
        for out_h, out_w in [(48, 48), (16, 24), (40, 52)]:
            got = resize_bilinear(new, out_h, out_w)
            assert got.flags.c_contiguous
            assert got.tobytes() == resize_bilinear(old, out_h, out_w).tobytes()
            assert got.tobytes() == resize_bilinear_gather(old, out_h, out_w).tobytes()
        for draw in [AugmentDraw(17.5, True, 0.1, -0.2), AugmentDraw(-90.0, False, 0.0, 0.3)]:
            got = augment(new, AugmentConfig(), seed=0, draw=draw)
            assert got.tobytes() == augment(old, AugmentConfig(), seed=0, draw=draw).tobytes()
            want = augment_gather(old, draw.angle_deg, draw.flip, draw.shift_x_frac, draw.shift_y_frac)
            assert got.tobytes() == want.tobytes()
        bbox = (5, 3, 33, 29)
        got, want = (crop_bbox(Sample(id="s", image=im, label=0, bbox=bbox)).image for im in (new, old))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.int16, np.bool_, np.uint16])
    def test_sample_refuses_images_that_are_neither_pixels_nor_floats(self, dtype):
        # Only uint8 is scaled by 1/255 when batched; any other integer image
        # would reach the network unscaled.
        with pytest.raises(IngestError, match="'odd'.*dtype"):
            Sample(id="odd", image=np.zeros((3, 4, 4), dtype=dtype), label=0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
    def test_sample_accepts_pixels_and_floats(self, dtype):
        assert Sample(id="s", image=np.zeros((3, 4, 4), dtype=dtype), label=0).image.dtype == dtype

    def test_float_image_scales_pixels_and_passes_floats_through(self):
        pixels = np.random.default_rng(13).integers(0, 256, (21, 18, 3), dtype=np.uint8)
        stored = np.ascontiguousarray(pixels.transpose(2, 0, 1))
        img = float_image(stored)
        assert img.dtype == np.float32 and img.flags.c_contiguous
        assert img.tobytes() == self.channels_last_image(pixels).tobytes()
        assert float_image(img) is img

    def test_dataset_rejects_duplicate_ids(self):
        s = self.make_sample(None)
        with pytest.raises(ManifestError):
            Dataset(samples=(s, s), class_names=("a",))


@pytest.mark.parametrize(
    "resample",
    [lambda im: resize_bilinear(im, 4, 4), lambda im: augment(im, AugmentConfig(), seed=0)],
    ids=["resize_bilinear", "augment"],
)
def test_resampling_refuses_integer_images(resample):
    # Weights take the image's dtype, so uint8 pixels would resample with
    # truncated weights; they must be scaled by float_image first.
    pixels = np.full((3, 6, 6), 200, dtype=np.uint8)
    with pytest.raises(ShapeError, match="floating"):
        resample(pixels)
    assert resample(float_image(pixels)).dtype == np.float32


class TestResize:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        for out_h, out_w in [(6, 6), (10, 4), (3, 9)]:
            img = rng.random((3, 5, 7))
            got = resize_bilinear(img, out_h, out_w)
            ref = resize_bilinear_naive(img.transpose(1, 2, 0), out_h, out_w)
            np.testing.assert_allclose(
                got, ref.transpose(2, 0, 1), rtol=1e-10, atol=1e-12
            )

    def test_identity_when_same_size(self):
        img = np.random.default_rng(2).random((3, 5, 5))
        np.testing.assert_array_equal(resize_bilinear(img, 5, 5), img)

    def test_constant_image_stays_constant(self):
        img = np.full((3, 4, 4), 0.37)
        out = resize_bilinear(img, 9, 5)
        np.testing.assert_allclose(out, 0.37, rtol=1e-12)


class TestAugment:
    def test_identity_draw_returns_copy(self):
        img = np.random.default_rng(0).random((3, 8, 8))
        out = augment(img, AugmentConfig.none(), seed=0)
        np.testing.assert_array_equal(out, img)
        assert out is not img

    def test_no_augmentation_skips_the_draw(self, monkeypatch):
        # AugmentConfig.none() can only draw the identity, so augment returns
        # the copy that draw would lead to without drawing; values outside
        # [0, 1] stay unclipped, as after any identity draw.
        assert all(
            draw_augment_params(AugmentConfig.none(), seed).is_identity() for seed in range(200)
        )

        def refuse(*args):
            raise AssertionError("drew parameters")

        monkeypatch.setattr(imageops_module, "draw_augment_params", refuse)
        img = np.random.default_rng(4).normal(size=(3, 8, 8)).astype(np.float32)
        out = augment(img, AugmentConfig.none(), seed=0)
        assert out.tobytes() == img.tobytes()
        assert out is not img

    def test_flip_only_draw_is_exact(self):
        img = np.random.default_rng(1).random((3, 6, 6))
        draw = AugmentDraw(angle_deg=0.0, flip=True, shift_x_frac=0.0, shift_y_frac=0.0)
        out = augment(img, AugmentConfig(h_flip=True), seed=0, draw=draw)
        np.testing.assert_array_equal(out, hflip(img))

    def test_integer_shift_matches_roll(self):
        img = np.random.default_rng(2).random((3, 10, 10))
        draw = AugmentDraw(angle_deg=0.0, flip=False, shift_x_frac=0.2, shift_y_frac=0.0)
        out = augment(img, AugmentConfig(width_shift_frac=0.5), seed=0, draw=draw)
        # shift of +2 pixels: content moves right, left margin zero-filled
        np.testing.assert_allclose(out[:, :, 2:], img[:, :, :-2], atol=1e-10)
        np.testing.assert_array_equal(out[:, :, :2], 0.0)

    def test_same_seed_bitwise_repeatable(self):
        img = np.random.default_rng(3).random((3, 12, 12))
        cfg = AugmentConfig(rotation_deg=20, h_flip=True, width_shift_frac=0.2, height_shift_frac=0.2)
        a = augment(img, cfg, seed=77)
        b = augment(img, cfg, seed=77)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        img = np.random.default_rng(4).random((3, 12, 12))
        cfg = AugmentConfig(rotation_deg=20, h_flip=True, width_shift_frac=0.2, height_shift_frac=0.2)
        assert not np.array_equal(augment(img, cfg, seed=1), augment(img, cfg, seed=2))

    def test_output_clipped_to_unit_range(self):
        img = np.ones((3, 9, 9))
        cfg = AugmentConfig(rotation_deg=45, h_flip=False, width_shift_frac=0.0, height_shift_frac=0.0)
        out = augment(img, cfg, seed=5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_draw_ranges_respect_config(self):
        cfg = AugmentConfig(rotation_deg=10, h_flip=False, width_shift_frac=0.1, height_shift_frac=0.0)
        for seed in range(50):
            d = draw_augment_params(cfg, seed)
            assert abs(d.angle_deg) <= 10
            assert d.flip is False
            assert abs(d.shift_x_frac) <= 0.1
            assert d.shift_y_frac == 0.0

    def test_config_dict_round_trip(self):
        cfg = AugmentConfig(rotation_deg=12.5, h_flip=True, width_shift_frac=0.15, height_shift_frac=0.05)
        assert decode_config(AugmentConfig, augment_config_to_dict(cfg), "augment config") == cfg

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AugmentConfig(rotation_deg=-1)
        with pytest.raises(ConfigError):
            AugmentConfig(width_shift_frac=1.5)


class TestSynth:
    def test_recipe_cycles_shape_then_count(self):
        assert class_recipe(0) == ("disk", 1)
        assert class_recipe(7) == ("vbar", 1)
        assert class_recipe(8) == ("disk", 2)
        assert class_recipe(17) == ("square", 3)

    def test_deterministic(self):
        spec = SynthSpec(num_classes=3, per_class=4, image_size=32, seed=9)
        a = synth_dataset(spec)
        b = synth_dataset(spec)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.image, sb.image)
            assert sa.id == sb.id

    def test_split_sizes(self):
        spec = SynthSpec(num_classes=4, per_class=10, image_size=32, seed=1)
        train = synth_dataset(spec, "train")
        test = synth_dataset(spec, "test")
        assert len(train) == 4 * 8  # 0.75 rounds 7.5 -> 8
        assert len(test) == 4 * 2
        assert set(s.id for s in train.samples).isdisjoint(s.id for s in test.samples)

    def test_offset_gives_disjoint_tasks(self):
        a = synth_dataset(SynthSpec(num_classes=3, per_class=2, image_size=32, seed=1))
        b = synth_dataset(SynthSpec(num_classes=3, per_class=2, image_size=32, seed=1, class_offset=3))
        assert set(a.class_names).isdisjoint(b.class_names)

    def test_every_sample_has_valid_bbox(self):
        ds = synth_dataset(SynthSpec(num_classes=4, per_class=3, image_size=32, seed=2))
        for s in ds.samples:
            x0, y0, x1, y1 = s.bbox
            assert 0 <= x0 < x1 <= 32
            assert 0 <= y0 < y1 <= 32

    def test_disk_round_trip_equals_memory(self, tmp_path):
        spec = SynthSpec(num_classes=3, per_class=4, image_size=32, seed=5)
        write_synth_dataset(spec, tmp_path)
        from_disk = load_dataset(tmp_path)
        in_memory = synth_dataset(spec)
        assert from_disk.class_names == in_memory.class_names
        by_id = {s.id: s for s in in_memory.samples}
        for s in from_disk.samples:
            np.testing.assert_array_equal(s.image, by_id[s.id].image)
            assert s.bbox == by_id[s.id].bbox
            assert s.label == by_id[s.id].label

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SynthSpec(num_classes=1, per_class=4, image_size=32, seed=0)
        with pytest.raises(ConfigError):
            SynthSpec(num_classes=2, per_class=4, image_size=8, seed=0)
