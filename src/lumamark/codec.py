"""Embed a 32x32 watermark into selected-block luminance; extract by sign test.

Bit-to-pixel mapping, shared by both directions: watermark bit i (row-major
over the 32x32 bitmap) lands in block plan.blocks[i // 64], at row-major
position i % 64 inside that 8x8 block. White bits add alpha to the pixel's
Y value, black bits subtract it. Extraction is non-blind: it recomputes the
plan from the original image's Y plane and reads the sign of Y_w - Y, where
a difference of exactly zero decodes as white.
"""

import warnings

import numpy as np

from .colorspace import pixels_to_ycc, ycc_to_pixels
from .errors import DimensionMismatch
from .pixmap import WATERMARK_BITS, WATERMARK_SIDE, RgbImage, WatermarkBitmap
from .selection import BLOCK_SIZE, SelectionPlan, partition_grid, select_blocks

DEFAULT_ALPHA = 3


def embedded_pixel_coords(plan: SelectionPlan) -> tuple[np.ndarray, np.ndarray]:
    """(ys, xs) of the 1024 carrier pixels, in watermark bit order."""
    i = np.arange(WATERMARK_BITS)
    block_idx = i // (BLOCK_SIZE * BLOCK_SIZE)
    within = i % (BLOCK_SIZE * BLOCK_SIZE)
    cols = np.array([b.col for b in plan.blocks])
    rows = np.array([b.row for b in plan.blocks])
    ys = rows[block_idx] * BLOCK_SIZE + within // BLOCK_SIZE
    xs = cols[block_idx] * BLOCK_SIZE + within % BLOCK_SIZE
    return ys, xs


def _check_grid(plan: SelectionPlan, width: int, height: int) -> None:
    """Raise DimensionMismatch unless the plan's grid is a width x height image's."""
    if (plan.grid_cols, plan.grid_rows) != partition_grid(width, height):
        raise DimensionMismatch(
            f"plan grid {plan.grid_cols}x{plan.grid_rows} does not match "
            f"a {width}x{height} image"
        )


def _check_sizes(original, watermarked) -> None:
    """Raise DimensionMismatch unless the images (or RgbFiles) agree in size."""
    if (original.width, original.height) != (watermarked.width, watermarked.height):
        raise DimensionMismatch(
            f"original is {original.width}x{original.height}, "
            f"watermarked is {watermarked.width}x{watermarked.height}"
        )


def _plan_for(original: RgbImage, plan: SelectionPlan | None) -> SelectionPlan:
    """The given plan, checked against the image's grid, or the default-delta
    plan of the original when none is given."""
    if plan is None:
        return select_blocks(original)
    _check_grid(plan, original.width, original.height)
    return plan


def _decode(original_carriers: np.ndarray, marked_carriers: np.ndarray) -> np.ndarray:
    """One bit per carrier, as uint8: 1 (white) where the marked Y is at least
    the original's, so a difference of exactly zero decodes white."""
    diff = pixels_to_ycc(marked_carriers)[:, 0] - pixels_to_ycc(original_carriers)[:, 0]
    return (diff >= 0).astype(np.uint8)


def _mark(carriers: np.ndarray, bits: np.ndarray, alpha: int) -> np.ndarray:
    """``embed`` on the (n, 3) uint8 carriers alone, with its checks of alpha
    and its warnings: each Y moves by +alpha (bit 1) or -alpha (bit 0), and
    the carriers are rebuilt to 8-bit RGB."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1 (0 would make the sign test vacuous)")
    if alpha < 2:
        warnings.warn("alpha=1 leaves no headroom for reconstruction rounding", stacklevel=3)
    ycc = pixels_to_ycc(carriers)
    # The sign in float64: -alpha would wrap for an unsigned numpy alpha.
    ycc[:, 0] += np.where(bits == 1, 1.0, -1.0) * alpha
    marked = ycc_to_pixels(ycc)
    # extract's own decoding, so this counts exactly the carriers it reads wrong.
    wrong = int(np.count_nonzero(_decode(carriers, marked) != bits))
    if wrong:
        warnings.warn(
            f"{wrong} of {bits.size} carriers cannot carry their bit: after rounding "
            "and clamping to [0, 255] their luminance change has the wrong sign, so "
            "extraction reads them wrong",
            RuntimeWarning,
            stacklevel=3,
        )
    return marked


def embed(
    original: RgbImage,
    watermark: WatermarkBitmap,
    alpha: int = DEFAULT_ALPHA,
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

    Without a plan the blocks are selected from the original at the default
    delta; pass ``plan=select_blocks(original, delta)`` for another delta.
    alpha must be at least 1, and alpha 1 warns.
    """
    ys, xs = embedded_pixel_coords(_plan_for(original, plan))
    marked = _mark(original.pixels[ys, xs], watermark.bits.reshape(-1), alpha)
    pixels = original.pixels.copy()
    pixels[ys, xs] = marked
    return RgbImage._adopt(pixels)


def extract(
    original: RgbImage,
    watermarked: RgbImage,
    plan: SelectionPlan | None = None,
) -> WatermarkBitmap:
    """Recover the watermark by comparing carrier-pixel luminance signs.

    Both images are read at the carriers only; the original's whole
    luminance is read just when the plan has to be recomputed.
    """
    _check_sizes(original, watermarked)
    ys, xs = embedded_pixel_coords(_plan_for(original, plan))
    bits = _decode(original.pixels[ys, xs], watermarked.pixels[ys, xs])
    return WatermarkBitmap(bits.reshape(WATERMARK_SIDE, WATERMARK_SIDE))
