import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumamark import codec
from lumamark.attacks import compress_attack
from lumamark.cli import _fmt
from lumamark.errors import DimensionMismatch
from lumamark.metrics import carrier_psnr, decide, psnr, similarity
from lumamark.pixmap import RgbImage, WatermarkBitmap
from lumamark.selection import select_blocks
from lumamark.testimages import CORPUS_NAMES, random_watermark

from support import dense_psnr, gray_image, random_bitmap, random_image


def _gray_with_bumped_pixels(value, count, bump, width=512, height=512):
    """Gray image with `count` pixels raised by `bump` in every channel,
    which shifts their Y by exactly `bump`."""
    pixels = np.full((height, width, 3), value, dtype=np.uint8)
    flat = pixels.reshape(-1, 3)
    flat[:count] += bump
    return RgbImage(pixels)


class TestPsnr:
    def test_identical_images_are_infinite(self):
        img = gray_image(70, 64, 64)
        assert psnr(img, img) == math.inf

    def test_1024_pixel_plus3_fixture_matches_closed_form(self):
        reference = gray_image(100)
        test = _gray_with_bumped_pixels(100, 1024, 3)
        expected = 10 * math.log10(255**2 * 512 * 512 / (1024 * 9))
        got = psnr(reference, test)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(62.67, abs=0.01)

    def test_halving_pixel_count_lowers_psnr_3db(self):
        full = psnr(gray_image(100, 512, 512), _gray_with_bumped_pixels(100, 1024, 3, 512, 512))
        half = psnr(gray_image(100, 512, 256), _gray_with_bumped_pixels(100, 1024, 3, 512, 256))
        assert full - half == pytest.approx(10 * math.log10(2), abs=1e-9)

    def test_symmetric(self):
        a = gray_image(100, 64, 64)
        b = _gray_with_bumped_pixels(100, 10, 5, 64, 64)
        assert psnr(a, b) == pytest.approx(psnr(b, a), rel=1e-12)

    def test_strictly_decreases_as_single_error_grows(self):
        a = gray_image(100, 64, 64)
        values = [psnr(a, _gray_with_bumped_pixels(100, 1, bump, 64, 64)) for bump in (1, 2, 5, 9)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            psnr(gray_image(1, 8, 8), gray_image(1, 8, 9))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 90),
        st.integers(1, 90),
        st.sampled_from([0, 1, 3, 255]),
    )
    def test_matches_dense_oracle_on_random_pairs(self, seed, width, height, spread):
        # spread 0 makes identical pairs, 255 unrelated ones.
        rng = np.random.default_rng(seed)
        a = random_image(rng, width, height)
        noise = rng.integers(-spread, spread + 1, size=a.pixels.shape)
        b = RgbImage(np.clip(a.pixels.astype(np.int16) + noise, 0, 255).astype(np.uint8))
        assert psnr(a, b) == pytest.approx(dense_psnr(a, b), rel=0, abs=1e-9)
        assert psnr(a, b) == psnr(b, a)

    def test_matches_dense_oracle_on_compressed_corpus(self, corpus):
        for img in corpus.values():
            for quality in (1.0, 0.75, 0.5):
                attacked = compress_attack(img, quality)
                assert psnr(img, attacked) == pytest.approx(dense_psnr(img, attacked), rel=0, abs=1e-9)


    @pytest.mark.parametrize("height", [33, 100, 513])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_changed_pixel_matches_dense_oracle(self, height, where):
        # Strips of equal pixels are skipped; the one that differs, whether
        # first, inside or the partial last strip, must still be summed.
        rng = np.random.default_rng(height)
        a = random_image(rng, 70, height)
        row = {"first": 0, "middle": height // 2, "last": height - 1}[where]
        pixels = a.pixels.copy()
        pixels[row, 37] = 255 - pixels[row, 37]
        b = RgbImage(pixels)
        assert psnr(a, b) < math.inf
        assert psnr(a, b) == pytest.approx(dense_psnr(a, b), rel=0, abs=1e-9)
        assert psnr(a, b) == psnr(b, a)
        assert psnr(a, RgbImage(a.pixels)) == math.inf


class TestCarrierPsnr:
    @pytest.mark.parametrize("alpha", [3, 60, 255], ids=["alpha3", "alpha60", "alpha255"])
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_matches_psnr_to_the_last_ulps(self, corpus, name, alpha):
        # alpha 60 and 255 clamp carriers at 255 and at 0.
        img = corpus[name]
        plan = select_blocks(img)
        ys, xs = codec.embedded_pixel_coords(plan)
        carriers = img.pixels[ys, xs]
        for seed in range(8):
            marked = codec.embed(img, random_watermark(seed), alpha, plan=plan)
            want = psnr(img, marked)
            got = carrier_psnr(carriers, marked.pixels[ys, xs], img.width * img.height)
            assert abs(got - want) <= 1e-15 * want
            assert _fmt(got) == _fmt(want)

    def test_unchanged_carriers_are_infinite(self, corpus):
        carriers = corpus["smooth_blobs"].pixels[:4, 0]
        assert carrier_psnr(carriers, carriers, 512 * 512) == math.inf


class TestSimilarity:
    def test_identical_is_one(self, logo):
        assert similarity(logo, logo) == 1.0

    def test_complement_is_zero(self, logo):
        assert similarity(logo, WatermarkBitmap(1 - logo.bits)) == 0.0

    def test_half_agreement(self):
        a = WatermarkBitmap(np.zeros((32, 32), dtype=np.uint8))
        bits = np.zeros((32, 32), dtype=np.uint8)
        bits[:16] = 1
        assert similarity(a, WatermarkBitmap(bits)) == 0.5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_symmetric_and_complement_identity(self, seed_a, seed_b):
        a = random_bitmap(np.random.default_rng(seed_a))
        b = random_bitmap(np.random.default_rng(seed_b))
        assert similarity(a, b) == similarity(b, a)
        complement = WatermarkBitmap(1 - b.bits)
        assert similarity(a, b) == pytest.approx(1.0 - similarity(a, complement), abs=1e-12)

    def test_random_pairs_concentrate_at_half(self):
        # Binomial(1024, 0.5): per-pair sd is about 0.0156, so the mean of
        # 1000 seeded pairs sits within 0.005 of one half.
        rng = np.random.default_rng(20240814)
        sigmas = [
            similarity(random_bitmap(rng), random_bitmap(rng)) for _ in range(1000)
        ]
        assert np.mean(sigmas) == pytest.approx(0.5, abs=0.005)
        assert np.std(sigmas) == pytest.approx(1 / (2 * math.sqrt(1024)), abs=0.004)


class TestDecide:
    def test_exactly_half_is_not_a_match(self):
        assert decide(0.5) is False

    def test_degraded_but_detectable_sigma_matches(self):
        assert decide(0.676) is True

    def test_top_of_interval(self):
        assert decide(1.0) is True

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decide(1.5)
