"""Deterministic in-process attacks: border crop, grayscale, DCT compression.

The compression attack is a JPEG-style quantization pipeline, not a JPEG
codec: every full 8x8 block of every Y/Cb/Cr plane is DCT-transformed,
quantized against the standard luminance table scaled by the quality
setting, and transformed back. It is bit-reproducible across platforms,
which a real encoder would not be. It runs over strips of whole block
rows, so each strip's planes stay in cache.
"""

from typing import NamedTuple

import numpy as np
from scipy.fft import dctn, idctn

from .colorspace import RGB_TO_YCC, STRIP_ROWS, pixels_to_ycc, round_half_away, ycc_to_pixels
from .errors import RectOutOfBounds
from .pixmap import RgbImage
from .selection import BLOCK_SIZE

# ITU-T T.81 Annex K.1 luminance quantization table.
LUMA_QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)


class CropRect(NamedTuple):
    x: int
    y: int
    w: int
    h: int


def crop_attack(img: RgbImage, keep: CropRect) -> RgbImage:
    """Blank everything outside the kept rectangle to black; dimensions stay."""
    x, y, w, h = keep
    if w < 1 or h < 1 or x < 0 or y < 0 or x + w > img.width or y + h > img.height:
        raise RectOutOfBounds(
            f"rect {keep} not inside {img.width}x{img.height} image"
        )
    out = np.zeros_like(img.pixels)
    out[y : y + h, x : x + w] = img.pixels[y : y + h, x : x + w]
    return RgbImage(out)


def grayscale_attack(img: RgbImage) -> RgbImage:
    """Replace each pixel with its rounded luminance; Y changes by rounding only."""
    # Element-wise, not ``luminance``: its matrix-vector product rounds
    # differently, and 2529 of the 16,782 RGB triples whose Y is an exact
    # half (299r + 587g + 114b = 500 mod 1000) would then round the other way.
    wr, wg, wb = RGB_TO_YCC[0]
    px = img.pixels
    g = px[:, :, 0] * wr + px[:, :, 1] * wg + px[:, :, 2] * wb
    g = np.clip(round_half_away(g), 0, 255, out=g).astype(np.uint8)
    return RgbImage(np.stack((g, g, g), axis=-1))


def quant_steps(quality: float) -> np.ndarray:
    """Per-coefficient quantization steps: the table scaled, floored at 1."""
    scale = (1.0 - quality) * 2.0 + 0.02
    return np.maximum(1.0, scale * LUMA_QUANT_TABLE)


def compress_attack(img: RgbImage, quality: float) -> RgbImage:
    """Degrade like a lossy encoder would: blockwise DCT quantization.

    All three planes share the luminance table; remainder pixels outside the
    8x8 grid pass through unchanged. Each strip of whole block rows is
    converted once, transformed by one DCT over all three planes, quantized
    and converted back. Copying the remainder instead of converting it gives
    the same bytes, because the colour round trip reproduces every 8-bit
    triple.
    """
    if not 0.0 < quality <= 1.0:
        raise ValueError("quality must lie in (0, 1]")
    pixels = img.pixels
    rows = (img.height // BLOCK_SIZE) * BLOCK_SIZE
    cols = (img.width // BLOCK_SIZE) * BLOCK_SIZE
    out = pixels.copy()
    if rows == 0 or cols == 0:
        return RgbImage(out)
    # steps[u, v] laid out as the (u, block column, v, plane) axes of a strip,
    # so the in-place quantization runs over contiguous rows.
    steps = np.broadcast_to(
        quant_steps(quality)[:, np.newaxis, :, np.newaxis],
        (BLOCK_SIZE, cols // BLOCK_SIZE, BLOCK_SIZE, 3),
    ).copy()
    for top in range(0, rows, STRIP_ROWS):
        bottom = min(top + STRIP_ROWS, rows)
        ycc = pixels_to_ycc(pixels[top:bottom, :cols])
        blocks = ycc.reshape(-1, BLOCK_SIZE, cols // BLOCK_SIZE, BLOCK_SIZE, 3)
        coeffs = dctn(blocks, type=2, norm="ortho", axes=(1, 3))
        coeffs /= steps
        coeffs = round_half_away(coeffs)
        coeffs *= steps
        restored = idctn(coeffs, type=2, norm="ortho", axes=(1, 3))
        out[top:bottom, :cols] = ycc_to_pixels(restored.reshape(bottom - top, cols, 3))
    return RgbImage(out)


def center_keep_rect(width: int, height: int) -> CropRect:
    """Default crop geometry: the centered half-width by half-height region."""
    return CropRect(width // 4, height // 4, width // 2, height // 2)
