"""Deterministic in-process attacks: border crop, grayscale, DCT compression.

The compression attack is a JPEG-style quantization pipeline, not a JPEG
codec: every full 8x8 block of every Y/Cb/Cr plane is DCT-transformed,
quantized against the standard luminance table scaled by the quality
setting, and transformed back. It is bit-reproducible across platforms,
which a real encoder would not be.
"""

from typing import NamedTuple

import numpy as np
from scipy.fft import dctn, idctn

from .colorspace import YcbcrImage, rgb_to_ycbcr, round_half_away, ycbcr_to_rgb
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
    rgb = img.pixels.astype(np.float64)
    g = rgb[:, :, 0] * 0.299 + rgb[:, :, 1] * 0.587 + rgb[:, :, 2] * 0.114
    g = np.clip(round_half_away(g), 0, 255).astype(np.uint8)
    return RgbImage(np.stack((g, g, g), axis=-1))


def quant_steps(quality: float) -> np.ndarray:
    """Per-coefficient quantization steps: the table scaled, floored at 1."""
    scale = (1.0 - quality) * 2.0 + 0.02
    return np.maximum(1.0, scale * LUMA_QUANT_TABLE)


def _quantize_plane(plane: np.ndarray, steps: np.ndarray) -> np.ndarray:
    rows = (plane.shape[0] // BLOCK_SIZE) * BLOCK_SIZE
    cols = (plane.shape[1] // BLOCK_SIZE) * BLOCK_SIZE
    if rows == 0 or cols == 0:
        return plane.copy()
    blocks = (
        plane[:rows, :cols]
        .reshape(rows // BLOCK_SIZE, BLOCK_SIZE, cols // BLOCK_SIZE, BLOCK_SIZE)
        .transpose(0, 2, 1, 3)
    )
    coeffs = dctn(blocks, type=2, norm="ortho", axes=(2, 3))
    coeffs = round_half_away(coeffs / steps) * steps
    restored = idctn(coeffs, type=2, norm="ortho", axes=(2, 3))
    out = plane.copy()
    out[:rows, :cols] = restored.transpose(0, 2, 1, 3).reshape(rows, cols)
    return out


def compress_attack(img: RgbImage, quality: float) -> RgbImage:
    """Degrade like a lossy encoder would: blockwise DCT quantization.

    All three planes share the luminance table; remainder pixels outside the
    8x8 grid pass through unchanged.
    """
    if not 0.0 < quality <= 1.0:
        raise ValueError("quality must lie in (0, 1]")
    ycc = rgb_to_ycbcr(img)
    steps = quant_steps(quality)
    planes = [_quantize_plane(p, steps) for p in (ycc.y, ycc.cb, ycc.cr)]
    return ycbcr_to_rgb(YcbcrImage(*planes))


def center_keep_rect(width: int, height: int) -> CropRect:
    """Default crop geometry: the centered half-width by half-height region."""
    return CropRect(width // 4, height // 4, width // 2, height // 2)
