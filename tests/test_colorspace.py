import numpy as np
import pytest

from lumamark.colorspace import (
    RGB_TO_YCC,
    STRIP_ROWS,
    YCC_TO_RGB,
    YcbcrImage,
    pixels_to_ycc,
    rgb_to_ycbcr,
    round_half_away,
    ycbcr_to_rgb,
)
from lumamark.errors import DimensionMismatch
from lumamark.pixmap import RgbImage

from support import gray_image, roundtrip_error

# Frozen regression constants: exhaustive evaluation over all 16.7M RGB
# triples found a worst-case round-trip error of exactly zero, and a worst
# |YCC_TO_RGB @ RGB_TO_YCC @ p - p| before rounding of 0.07038.
ROUNDTRIP_EMAX = 0
PRE_ROUNDING_EMAX = 0.0704


def _one_pixel(r, g, b):
    return RgbImage(np.array([[[r, g, b]]], dtype=np.uint8))


def _forward_one(r, g, b):
    ycc = rgb_to_ycbcr(_one_pixel(r, g, b))
    return ycc.y[0, 0], ycc.cb[0, 0], ycc.cr[0, 0]


class TestForward:
    def test_black_maps_to_zero(self):
        assert _forward_one(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_pure_red_scales_first_column(self):
        y, cb, cr = _forward_one(100, 0, 0)
        assert y == pytest.approx(29.9)
        assert cb == pytest.approx(59.6)
        assert cr == pytest.approx(21.2)

    def test_white_has_zero_chroma(self):
        y, cb, cr = _forward_one(255, 255, 255)
        assert y == pytest.approx(255.0)
        assert cb == pytest.approx(0.0, abs=1e-9)
        assert cr == pytest.approx(0.0, abs=1e-9)

    def test_gray_scales_y_linearly(self):
        for v in (10, 100, 200):
            y, cb, cr = _forward_one(v, v, v)
            assert y == pytest.approx(float(v))
            assert cb == pytest.approx(0.0, abs=1e-9)
            assert cr == pytest.approx(0.0, abs=1e-9)

    def test_no_clamping_or_rounding(self):
        ycc = rgb_to_ycbcr(_one_pixel(0, 255, 0))
        assert ycc.cb[0, 0] < 0  # chroma goes negative, untouched

    def test_luminance_matches_y_plane_within_ulps(self, corpus):
        rng = np.random.default_rng(987654321)
        sample = RgbImage(rng.integers(0, 256, size=(1000, 1024, 3), dtype=np.uint8))
        for img in (sample, *corpus.values()):
            y = img.pixels @ RGB_TO_YCC[0]
            assert y.dtype == np.float64 and y.shape == (img.height, img.width)
            assert np.abs(y - rgb_to_ycbcr(img).y).max() <= 1e-12

    @pytest.mark.parametrize("height", [1, STRIP_ROWS - 1, STRIP_ROWS, 3 * STRIP_ROWS + 5])
    def test_luminance_strips_equal_one_product(self, height):
        # Selection and psnr take the Y product a strip or a few rows at a
        # time: bit for bit the single whole-array product.
        rng = np.random.default_rng(height)
        for dtype, lo in ((np.uint8, 0), (np.int16, -255)):
            pixels = rng.integers(lo, 256, size=(height, 77, 3)).astype(dtype)
            whole = pixels @ RGB_TO_YCC[0]
            for rows in (1, 8, STRIP_ROWS):
                strips = [pixels[t : t + rows] @ RGB_TO_YCC[0] for t in range(0, height, rows)]
                assert np.array_equal(np.concatenate(strips), whole)


class TestInverse:
    def test_y_column_is_exactly_one(self):
        # codec._mark rests on it: +-alpha on Y is +-alpha on R, G and B.
        assert np.array_equal(YCC_TO_RGB[:, 0], [1.0, 1.0, 1.0])

    def test_zero_maps_to_zero(self):
        img = ycbcr_to_rgb(YcbcrImage(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))))
        assert img.pixels.tolist() == [[[0, 0, 0]]]

    def test_y_only_reproduces_gray(self):
        img = ycbcr_to_rgb(YcbcrImage(np.full((1, 1), 100.0), np.zeros((1, 1)), np.zeros((1, 1))))
        assert img.pixels.tolist() == [[[100, 100, 100]]]

    def test_clamps_above_255(self):
        img = ycbcr_to_rgb(YcbcrImage(np.full((1, 1), 300.0), np.zeros((1, 1)), np.zeros((1, 1))))
        assert img.pixels.tolist() == [[[255, 255, 255]]]

    def test_plane_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            YcbcrImage(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 1.0), (1.5, 2.0), (2.5, 3.0), (2.4, 2.0), (-0.5, -1.0), (-2.5, -3.0), (-2.4, -2.0)],
    )
    def test_halves_away_from_zero(self, value, expected):
        assert round_half_away(np.array([value]))[0] == expected


class TestRoundtrip:
    def test_uniform_gray_error_zero(self):
        for v in (0, 1, 64, 128, 254, 255):
            assert roundtrip_error(gray_image(v, 8, 8)) == (0, 0, 0)

    def test_all_gray_triples_exact(self):
        v = np.arange(256, dtype=np.uint8)
        img = RgbImage(np.stack((v, v, v), axis=-1).reshape(1, 256, 3))
        assert roundtrip_error(img) == (0, 0, 0)

    def test_primary_corners_exact(self):
        for triple in [(255, 0, 0), (0, 255, 0), (0, 0, 255), (255, 255, 0), (255, 0, 255)]:
            restored = ycbcr_to_rgb(rgb_to_ycbcr(_one_pixel(*triple)))
            assert tuple(restored.pixels[0, 0]) == triple

    def test_exhaustive_color_cube(self):
        # All 16,777,216 triples, swept as 256 one-row images.
        g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        gb = np.stack([g.ravel(), b.ravel()], axis=1).astype(np.uint8)
        worst, worst_pre_rounding = 0, 0.0
        for r in range(256):
            plane = np.column_stack([np.full(65536, r, dtype=np.uint8), gb]).reshape(1, 65536, 3)
            worst = max(worst, max(roundtrip_error(RgbImage(plane))))
            pre_rounding = np.abs(pixels_to_ycc(plane) @ YCC_TO_RGB.T - plane).max()
            worst_pre_rounding = max(worst_pre_rounding, float(pre_rounding))
        assert worst <= ROUNDTRIP_EMAX
        assert 0.07 < worst_pre_rounding <= PRE_ROUNDING_EMAX

    def test_dense_random_sample_within_frozen_bound(self):
        rng = np.random.default_rng(987654321)
        pixels = rng.integers(0, 256, size=(1000, 1024, 3), dtype=np.uint8)
        assert max(roundtrip_error(RgbImage(pixels))) <= ROUNDTRIP_EMAX

    def test_corpus_roundtrip_exact(self, corpus):
        for img in corpus.values():
            assert roundtrip_error(img) == (0, 0, 0)
