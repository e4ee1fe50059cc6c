"""Imperceptibility (PSNR over Y) and extraction fidelity (similarity sigma)."""

import math

import numpy as np

from .colorspace import RGB_TO_YCC, STRIP_ROWS
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
    # Y is linear, so the luminance of the channel difference is
    # Y_ref - Y_test, antisymmetric to the last bit. Row strips keep the
    # int16 difference and its Y in cache. A strip whose pixels are equal
    # would add exactly 0.0, so it is skipped.
    ssd = 0.0
    for top in range(0, reference.height, STRIP_ROWS):
        rows = slice(top, top + STRIP_ROWS)
        ref_rows, test_rows = reference.pixels[rows], test.pixels[rows]
        if not np.array_equal(ref_rows, test_rows):
            ssd += _ssd(ref_rows, test_rows)
    return _db(ssd, reference.width * reference.height)


def carrier_psnr(original: np.ndarray, marked: np.ndarray, pixel_count: int) -> float:
    """``psnr`` of an image of ``pixel_count`` pixels and a copy that differs
    only at these (n, 3) uint8 carriers. It sums ``psnr``'s Y differences in
    another order, so it agrees to within a few ulp, not bit for bit."""
    return _db(_ssd(original, marked), pixel_count)


def _ssd(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of squared Y differences of two uint8 channel arrays."""
    dy = np.subtract(a, b, dtype=np.int16) @ RGB_TO_YCC[0]
    return float(np.square(dy, out=dy).sum())


def _db(ssd: float, pixel_count: int) -> float:
    """10*log10(255^2 * N / ssd); +inf for an ssd of zero."""
    return 10.0 * math.log10(255.0**2 * pixel_count / ssd) if ssd else math.inf


def similarity(reference: WatermarkBitmap, extracted: WatermarkBitmap) -> float:
    """Fraction of the 1024 bit positions on which the two bitmaps agree."""
    agree = int((reference.bits == extracted.bits).sum())
    return agree / WATERMARK_BITS


def decide(sigma: float) -> bool:
    """True iff sigma falls in (0.5, 1.0]: the extracted watermark matches."""
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")
    return sigma > 0.5

