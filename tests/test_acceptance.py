"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines inline.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from lumamark.attacks import center_keep_rect, compress_attack, crop_attack, grayscale_attack
from lumamark.codec import embed, extract
from lumamark.colorspace import RGB_TO_YCC
from lumamark.metrics import decide, psnr, similarity
from lumamark.pixmap import RgbImage, WatermarkBitmap
from lumamark.selection import TIE_TOLERANCE, select_blocks, spiral_order

from support import (
    gray_image,
    log_mean_oracle,
    random_bitmap,
    roundtrip_error,
    spiral_oracle,
    ycc_from_y,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {label}")
        raise
    print(f"criterion {number} PASS: {label}")


def test_criterion_1_perfect_roundtrip(corpus):
    with criterion(1, "extract(embed(.)) exact for 100 random watermarks per image"):
        for name, img in corpus.items():
            for seed in range(100):
                wm = random_bitmap(np.random.default_rng(seed))
                extracted = extract(img, embed(img, wm))
                assert similarity(wm, extracted) == 1.0, (name, seed)
                assert extracted == wm


def test_criterion_2_imperceptibility(corpus, logo):
    with criterion(2, "PSNR of embedding at alpha=3 lies in [62.0, 63.0] dB"):
        for name, img in corpus.items():
            value = psnr(img, embed(img, logo))
            assert 62.0 <= value <= 63.0, (name, value)


def test_criterion_3_grayscale_robustness(corpus, logo):
    with criterion(3, "sigma = 1.0 after grayscale attack"):
        for name, img in corpus.items():
            attacked = grayscale_attack(embed(img, logo))
            assert similarity(logo, extract(img, attacked)) == 1.0, name


def test_criterion_4_crop_robustness(corpus, logo):
    with criterion(4, "sigma = 1.0 after default center-keeping crop"):
        for name, img in corpus.items():
            keep = center_keep_rect(img.width, img.height)
            attacked = crop_attack(embed(img, logo), keep)
            assert similarity(logo, extract(img, attacked)) == 1.0, name


def test_criterion_5_compression_band(corpus, logo):
    with criterion(5, "sigma > 0.5 at quality 0.75; non-increasing over the ladder"):
        for name, img in corpus.items():
            marked = embed(img, logo)
            sigmas = [
                similarity(logo, extract(img, compress_attack(marked, q)))
                for q in (1.0, 0.9, 0.75, 0.5)
            ]
            at_075 = sigmas[2]
            assert at_075 > 0.5 and decide(at_075), (name, at_075)
            assert all(a >= b for a, b in zip(sigmas, sigmas[1:])), (name, sigmas)


def test_criterion_6_selection_oracles(corpus):
    with criterion(6, "spiral matches brute-force enumerator; selections pass candidate predicate"):
        for cols in range(1, 10):
            for rows in range(1, 10):
                got = [(b.col, b.row) for b in spiral_order(cols, rows)]
                assert got == spiral_oracle(cols, rows), (cols, rows)

        # (what selection reads, the Y plane the oracle reads)
        fixtures = [(img, img.pixels @ RGB_TO_YCC[0]) for img in corpus.values()]
        two_tone = np.full((64, 64), 50.0)
        two_tone[:, :32] = 200.0
        for y in (np.full((512, 512), 128.0), two_tone):
            fixtures.append((ycc_from_y(y), y))
        for source, y in fixtures:
            plan = select_blocks(source)
            image_mean = log_mean_oracle(y)
            for b in plan.blocks:
                block = y[b.row * 8 : b.row * 8 + 8, b.col * 8 : b.col * 8 + 8]
                assert log_mean_oracle(block) >= image_mean - TIE_TOLERANCE, b


def test_criterion_7_null_hypothesis(corpus):
    with criterion(7, "unrelated extraction: mean sigma within 0.5 +/- 0.005; decide(0.5) is False"):
        unrelated = extract(corpus["smooth_blobs"], corpus["soft_gradient"])
        rng = np.random.default_rng(1234)
        sigmas = [similarity(unrelated, random_bitmap(rng)) for _ in range(1000)]
        assert abs(float(np.mean(sigmas)) - 0.5) <= 0.005
        assert decide(0.5) is False


def test_criterion_8_colorspace_regression():
    with criterion(8, "round-trip error 0 on 10^6-triple sample; gray triples exact"):
        rng = np.random.default_rng(424242)
        sample = rng.integers(0, 256, size=(1024, 1024, 3), dtype=np.uint8)
        assert max(roundtrip_error(RgbImage(sample))) <= 0
        v = np.arange(256, dtype=np.uint8)
        grays = RgbImage(np.stack((v, v, v), axis=-1).reshape(1, 256, 3))
        assert roundtrip_error(grays) == (0, 0, 0)


def test_criterion_9_metrics_unit_checks(logo):
    with criterion(9, "similarity edges, PSNR infinity sentinel, 62.67 dB fixture"):
        assert similarity(logo, logo) == 1.0
        assert similarity(logo, WatermarkBitmap(1 - logo.bits)) == 0.0
        img = gray_image(90, 64, 64)
        assert psnr(img, img) == math.inf
        pixels = np.full((512, 512, 3), 100, dtype=np.uint8)
        pixels.reshape(-1, 3)[:1024] += 3
        fixture = psnr(gray_image(100), RgbImage(pixels))
        assert fixture == pytest.approx(62.67, abs=0.01)
