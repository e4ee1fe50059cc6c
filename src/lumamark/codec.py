"""Embed a 32x32 watermark into selected-block luminance; extract by sign test.

Bit-to-pixel mapping, shared by both directions: watermark bit i (row-major
over the 32x32 bitmap) lands in block plan.blocks[i // 64], at row-major
position i % 64 inside that 8x8 block. White bits add alpha to the pixel's
Y value, black bits subtract it. Extraction is non-blind: it recomputes the
plan from the original image's Y plane and reads the sign of Y_w - Y, where
a difference of exactly zero decodes as white.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .colorspace import pixels_to_ycc, ycc_to_pixels
from .errors import DimensionMismatch
from .pixmap import RgbImage, WatermarkBitmap
from .selection import (
    BLOCK_SIZE,
    DEFAULT_DELTA,
    SelectionPlan,
    partition_grid,
    select_blocks,
)

DEFAULT_ALPHA = 3


@dataclass(frozen=True)
class EmbedParams:
    alpha: int = DEFAULT_ALPHA
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1 (0 would make the sign test vacuous)")
        if self.alpha < 2:
            warnings.warn(
                "alpha=1 leaves no headroom for reconstruction rounding",
                stacklevel=3,
            )


def embedded_pixel_coords(plan: SelectionPlan) -> tuple[np.ndarray, np.ndarray]:
    """(ys, xs) of the 1024 carrier pixels, in watermark bit order."""
    i = np.arange(32 * 32)
    block_idx = i // (BLOCK_SIZE * BLOCK_SIZE)
    within = i % (BLOCK_SIZE * BLOCK_SIZE)
    cols = np.array([b.col for b in plan.blocks])
    rows = np.array([b.row for b in plan.blocks])
    ys = rows[block_idx] * BLOCK_SIZE + within // BLOCK_SIZE
    xs = cols[block_idx] * BLOCK_SIZE + within % BLOCK_SIZE
    return ys, xs


def _check_plan_fits(plan: SelectionPlan, width: int, height: int) -> None:
    if (plan.grid_cols, plan.grid_rows) != partition_grid(width, height):
        raise DimensionMismatch(
            f"plan grid {plan.grid_cols}x{plan.grid_rows} does not match "
            f"a {width}x{height} image"
        )


def embed(
    original: RgbImage,
    watermark: WatermarkBitmap,
    params: EmbedParams = EmbedParams(),
    plan: SelectionPlan | None = None,
) -> RgbImage:
    """Embed the watermark and reconstruct 8-bit RGB at the carriers.

    Only the 1024 carrier pixels, gathered in bit order, go through YCbCr and
    back; every other pixel is copied. That is the same output as rebuilding
    the whole image: the colour transform is per pixel, and its round trip
    reproduces every unmodified 8-bit triple exactly.

    Issues a RuntimeWarning when rounding and clamping to [0, 255] leave
    carriers whose realised luminance change has the wrong sign for their
    bit (a white bit with dY < 0, a black bit with dY >= 0): extraction
    reads those carriers wrong even from the unattacked image.
    """
    if plan is None:
        plan = select_blocks(original, params.delta)
    else:
        _check_plan_fits(plan, original.width, original.height)
    ys, xs = embedded_pixel_coords(plan)
    ycc = pixels_to_ycc(original.pixels[ys, xs])
    y = ycc[:, 0].copy()
    white = watermark.bits.reshape(-1) == 1
    ycc[:, 0] += np.where(white, params.alpha, -params.alpha)
    marked = ycc_to_pixels(ycc)
    # The same carrier arithmetic extract uses, so this counts exactly the
    # carriers that decode wrong.
    realised = pixels_to_ycc(marked)[:, 0] - y
    wrong = int(np.count_nonzero((realised >= 0) != white))
    if wrong:
        warnings.warn(
            f"{wrong} of {white.size} carriers cannot carry their bit: after rounding "
            "and clamping to [0, 255] their luminance change has the wrong sign, so "
            "extraction reads them wrong",
            RuntimeWarning,
            stacklevel=2,
        )
    pixels = original.pixels.copy()
    pixels[ys, xs] = marked
    return RgbImage(pixels)


def extract(
    original: RgbImage,
    watermarked: RgbImage,
    params: EmbedParams = EmbedParams(),
    plan: SelectionPlan | None = None,
) -> WatermarkBitmap:
    """Recover the watermark by comparing carrier-pixel luminance signs.

    Both images are read at the carriers only; the original's whole
    luminance is read just when the plan has to be recomputed.
    """
    if (original.width, original.height) != (watermarked.width, watermarked.height):
        raise DimensionMismatch(
            f"original is {original.width}x{original.height}, "
            f"watermarked is {watermarked.width}x{watermarked.height}"
        )
    if plan is None:
        plan = select_blocks(original, params.delta)
    else:
        _check_plan_fits(plan, original.width, original.height)
    ys, xs = embedded_pixel_coords(plan)
    diff = (
        pixels_to_ycc(watermarked.pixels[ys, xs])[:, 0]
        - pixels_to_ycc(original.pixels[ys, xs])[:, 0]
    )
    bits = (diff >= 0).astype(np.uint8).reshape(32, 32)
    return WatermarkBitmap(bits)
