"""The whole-image passes give the same bytes at any strip height.

``selection``, ``attacks`` and ``metrics`` walk images in strips of
``STRIP_ROWS`` rows. The block means, the image's mean log, the plan and
the attacked images must not depend on the strip height, so that any partition
of the strips gives the same output. ``psnr`` adds one float sum per strip,
so its sum regroups with the height: it agrees to within a few ulp only.
"""

import sys

import numpy as np
import pytest

from lumamark import attacks, colorspace, metrics, selection
from lumamark.attacks import compress_attack, grayscale_attack
from lumamark.pixmap import RgbImage

from support import random_image

SIZES = [(77, 301), (130, 97), (263, 40)]  # width x height: no size a multiple of 32


def _smooth_image(width: int, height: int):
    """Low-frequency gradients plus noise, so that the candidate mask and
    the compressed blocks vary over the image."""
    yy, xx = np.mgrid[0:height, 0:width]
    base = 128 + 90 * np.sin(xx / 17.0) * np.cos(yy / 23.0)
    noise = np.random.default_rng(width * height).normal(0, 6, size=(height, width, 3))
    pixels = np.clip(np.rint(base[..., None] + noise + [0, 10, -10]), 0, 255)
    return RgbImage(pixels.astype(np.uint8))


def _images():
    for i, (width, height) in enumerate(SIZES):
        yield random_image(np.random.default_rng(i), width, height)
        yield _smooth_image(width, height)


def _log_stats(img):
    """The whole grid's block means and the image's mean of log(DELTA + Y)."""
    grid_cols, grid_rows = selection.partition_grid(img.width, img.height)
    block_means = selection._window_log_means(img, range(grid_cols), range(grid_rows))
    return block_means, selection._image_log_mean(img)


def _passes(img):
    """The log statistics, the plan, the attacked images and their PSNRs."""
    block_means, image_log_mean = _log_stats(img)
    attacked = [compress_attack(img, 1.0), compress_attack(img, 0.75), grayscale_attack(img)]
    psnrs = [metrics.psnr(img, a) for a in attacked]
    return block_means, image_log_mean, selection.select_blocks(img), attacked, psnrs


@pytest.fixture(scope="module")
def at_default_height():
    assert colorspace.STRIP_ROWS == 32
    return [(img, _passes(img)) for img in _images()]


@pytest.mark.parametrize("strip_rows", [8, 16, 24, 64, 256])
def test_same_bytes_at_any_strip_height(monkeypatch, at_default_height, strip_rows):
    for module in (selection, attacks, metrics):
        monkeypatch.setattr(module, "STRIP_ROWS", strip_rows)
    for img, (block_means, image_log_mean, plan, attacked, psnrs) in at_default_height:
        got_means, got_mean, got_plan, got_attacked, got_psnrs = _passes(img)
        assert np.array_equal(got_means, block_means)
        assert got_mean == image_log_mean
        assert got_plan == plan
        assert got_attacked == attacked
        assert got_psnrs == pytest.approx(psnrs, rel=4 * sys.float_info.epsilon, abs=0)


@pytest.mark.parametrize("cast_pixels", [1, 100, 1000])
def test_same_log_stats_at_any_y_product_height(monkeypatch, at_default_height, cast_pixels):
    # Selection takes each strip's Y product a few rows at a time: 1-12 rows
    # at these widths, where the default takes the whole strip at once.
    monkeypatch.setattr(selection, "_CAST_PIXELS", cast_pixels)
    for img, (block_means, image_log_mean, plan, _, _) in at_default_height:
        got_means, got_mean = _log_stats(img)
        assert np.array_equal(got_means, block_means)
        assert got_mean == image_log_mean
        assert selection.select_blocks(img) == plan
