"""Embed a 32x32 watermark into selected-block luminance; extract by sign test.

Bit-to-pixel mapping, shared by both directions: watermark bit i (row-major
over the 32x32 bitmap) lands in block plan.blocks[i // 64], at row-major
position i % 64 inside that 8x8 block. White bits add the integer alpha to
the pixel's R, G and B, black bits subtract it, clamped to [0, 255]: as
YCC_TO_RGB's Y column is (1, 1, 1), that is +-alpha on Y rebuilt to 8-bit
RGB. Extraction is non-blind: it reselects the plan from the original's
log-average luminance and reads the sign of Y_w - Y in exact integer
arithmetic (1000 * Y = 299R + 587G + 114B), where a difference of exactly
zero decodes as white.
"""

import operator
import warnings

import numpy as np

from .errors import DimensionMismatch
from .pixmap import WATERMARK_BITS, WATERMARK_SIDE, RgbFile, RgbImage, WatermarkBitmap
from .selection import BLOCK_SIZE, SelectionPlan, partition_grid, select_blocks

DEFAULT_ALPHA = 3
_Y1000 = np.array([299, 587, 114], dtype=np.int32)  # 1000 * RGB_TO_YCC[0]


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


def _plan_for(original: RgbImage | RgbFile, plan: SelectionPlan | None) -> SelectionPlan:
    """The given plan, checked against the image's grid, or the plan selected
    from the original's rows when none is given."""
    if plan is None:
        return select_blocks(original)
    if (plan.grid_cols, plan.grid_rows) != partition_grid(original.width, original.height):
        raise DimensionMismatch(
            f"plan grid {plan.grid_cols}x{plan.grid_rows} does not match "
            f"a {original.width}x{original.height} image"
        )
    return plan


def _carriers(image: RgbImage | RgbFile, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The pixels at (ys, xs), taken from the span of rows that holds them:
    of an RgbFile, only that span is read."""
    top = int(ys.min())
    return image.rows(top, int(ys.max()) + 1)[ys - top, xs]


def _decode(original_carriers: np.ndarray, marked_carriers: np.ndarray) -> np.ndarray:
    """One bit per carrier, as uint8: 1 (white) where the marked Y is at least
    the original's. The sign of the integer 1000 * dY is exact (an exact
    predicate, as in Shewchuk 1997): a zero is a true tie, and decodes white."""
    diff = (marked_carriers.astype(np.int32) - original_carriers) @ _Y1000
    return (diff >= 0).astype(np.uint8)


def _mark(carriers: np.ndarray, bits: np.ndarray, alpha: int) -> np.ndarray:
    """``embed`` on the (n, 3) uint8 carriers alone, with its checks of alpha
    and its warnings: each channel moves by +alpha (bit 1) or -alpha (bit 0),
    clamped to [0, 255]."""
    alpha = operator.index(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1 (0 would make the sign test vacuous)")
    if alpha < 2:
        warnings.warn(
            "alpha=1 is a one-unit change, which an attack's rounding undoes", stacklevel=3
        )
    # An alpha of 255 or more saturates every channel: capped, it fits int16.
    step = np.where(bits == 1, 1, -1).astype(np.int16) * min(alpha, 255)
    marked = np.clip(carriers + step[:, None], 0, 255).astype(np.uint8)
    # extract's own decoding, so this counts exactly the carriers it reads wrong.
    wrong = int(np.count_nonzero(_decode(carriers, marked) != bits))
    if wrong:
        warnings.warn(
            f"{wrong} of {bits.size} carriers cannot carry their bit: they are black "
            "bits on (0, 0, 0) pixels, which clamping leaves unchanged, so "
            "extraction reads them white",
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
    """Embed the watermark: add alpha to, or subtract it from, the R, G and
    B of the 1024 carrier pixels, clamped to [0, 255]; copy every other pixel.

    alpha is an integer (a float raises TypeError) of at least 1, and 1
    warns. A RuntimeWarning counts the carriers that cannot carry their bit:
    black bits on (0, 0, 0) pixels, which clamping leaves unchanged, so
    extraction reads them white even from the unattacked image. Without a
    plan the blocks are selected from the original.
    """
    ys, xs = embedded_pixel_coords(_plan_for(original, plan))
    marked = _mark(original.pixels[ys, xs], watermark.bits.reshape(-1), alpha)
    pixels = original.pixels.copy()
    pixels[ys, xs] = marked
    return RgbImage._adopt(pixels)


def extract(
    original: RgbImage | RgbFile,
    watermarked: RgbImage | RgbFile,
    plan: SelectionPlan | None = None,
) -> WatermarkBitmap:
    """Recover the watermark by comparing carrier-pixel luminance signs.

    Both images are read at the carriers' rows only, after the size and grid
    checks. Without a plan, selection first reads the original a strip of
    rows at a time, so no ``RgbFile`` is ever held in full.
    """
    if (original.width, original.height) != (watermarked.width, watermarked.height):
        raise DimensionMismatch(
            f"original is {original.width}x{original.height}, "
            f"watermarked is {watermarked.width}x{watermarked.height}"
        )
    ys, xs = embedded_pixel_coords(_plan_for(original, plan))
    bits = _decode(_carriers(original, ys, xs), _carriers(watermarked, ys, xs))
    return WatermarkBitmap(bits.reshape(WATERMARK_SIDE, WATERMARK_SIDE))
