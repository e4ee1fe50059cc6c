"""Imperceptibility (PSNR over Y) and extraction fidelity (similarity sigma)."""

import math

import numpy as np

from .colorspace import STRIP_ROWS
from .errors import DimensionMismatch
from .pixmap import RgbImage, WatermarkBitmap, WATERMARK_BITS


def psnr(reference: RgbImage, test: RgbImage) -> float:
    """Peak signal-to-noise ratio in dB between the two images' Y planes.

    10*log10(255^2 * N / sum((Y_ref - Y_test)^2)); +inf when the planes match.
    """
    if (reference.width, reference.height) != (test.width, test.height):
        raise DimensionMismatch(
            f"reference is {reference.width}x{reference.height}, "
            f"test is {test.width}x{test.height}"
        )
    # Y is linear: Y of the channel difference is Y_ref - Y_test. Strips keep
    # the int16 difference in cache; a strip of equal pixels adds 0, skipped.
    ssd = 0
    for top in range(0, reference.height, STRIP_ROWS):
        rows = slice(top, top + STRIP_ROWS)
        ref_rows, test_rows = reference.pixels[rows], test.pixels[rows]
        if not np.array_equal(ref_rows, test_rows):
            ssd += _ssd(ref_rows, test_rows)
    return _db(ssd, reference.width * reference.height)


def carrier_psnr(original: np.ndarray, marked: np.ndarray, pixel_count: int) -> float:
    """``psnr`` of an image of ``pixel_count`` pixels and a copy that differs
    only at these (n, 3) uint8 carriers, bit for bit: both sum one integer."""
    return _db(_ssd(original, marked), pixel_count)


# 1000 dY, its square and a float sum of up to _EXACT_TERMS squares are integers
# below 2**53, exact in any order on any BLAS kernel; longer sums go via int64.
_Y1000 = np.array([299.0, 587.0, 114.0])
_EXACT_TERMS = 2**53 // 255_000**2


def _ssd(a: np.ndarray, b: np.ndarray) -> int:
    """The sum of squared 1000 Y differences of two uint8 channel arrays."""
    dy = np.subtract(a, b, dtype=np.int16) @ _Y1000
    dy = np.square(dy, out=dy)
    return int(dy.sum() if dy.size <= _EXACT_TERMS else dy.astype(np.int64).sum())


def _db(ssd: int, pixel_count: int) -> float:
    """10*log10(255^2 * N / sum(dY^2)) of ssd = sum((1000 dY)^2); +inf for 0."""
    return 10.0 * math.log10(65025 * 10**6 * pixel_count / ssd) if ssd else math.inf


def similarity(reference: WatermarkBitmap, extracted: WatermarkBitmap) -> float:
    """Fraction of the 1024 bit positions on which the two bitmaps agree."""
    agree = int((reference.bits == extracted.bits).sum())
    return agree / WATERMARK_BITS


def decide(sigma: float) -> bool:
    """True iff sigma falls in (0.5, 1.0]: the extracted watermark matches."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    return sigma > 0.5

