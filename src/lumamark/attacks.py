"""Deterministic in-process attacks: border crop, grayscale, DCT compression.

The compression attack is a JPEG-style quantization pipeline, not a JPEG
codec: every full 8x8 block of every Y/Cb/Cr plane is DCT-transformed,
quantized against the standard luminance table scaled by the quality
setting, and transformed back. Unlike a real encoder it is deterministic,
but the blocks near a rounding tie get whatever bytes scipy's FFT and the
BLAS kernel behind the 3x3 colour products round to, and no test shows that
rounding to be the same on every platform (OpenBLAS's pre-FMA kernel changes
some).

Its bytes are those of the exact path, ``_exact_blocks``: the colour
matrices, scipy's FFT ``dctn``/``idctn`` and ``round_half_away``. The attack
gets them faster, a strip of whole block rows at a time, from matrix
arithmetic: one 3x3 product per colour conversion and two products with the
8x8 DCT matrix per transform. The two paths differ by rounding noise under
``_ERROR_BOUND``, derived from the values' magnitudes and the operation
counts. Noise can change a byte only through a value that gets rounded: a
coefficient over its step, or a pre-rounding RGB value. So every block with
such a value within ``_EPS`` (a margin over the bound) of a half-integer is
recomputed by the exact path, and no other block can round differently from
it: a filter with an exact fallback, as in Shewchuk's robust geometric
predicates (1997). The fast path rounds halves to even (``np.rint``, one pass
instead of three); an exact half is always flagged, so the exact path still
rounds it away from zero.
"""

from typing import NamedTuple

import numpy as np

from .colorspace import (
    RGB_TO_YCC,
    STRIP_ROWS,
    YCC_TO_RGB,
    pixels_to_ycc,
    round_half_away,
    ycc_to_pixels,
)
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
    return RgbImage._adopt(out)


def grayscale_attack(img: RgbImage) -> RgbImage:
    """Replace each pixel with its rounded luminance; Y changes by rounding only."""
    # Element-wise, not ``pixels @ RGB_TO_YCC[0]``: that product rounds
    # differently, and 2529 of the 16,782 RGB triples whose Y is an exact
    # half (299r + 587g + 114b = 500 mod 1000) would then round the other way.
    # Strip by strip, so the float temporaries stay strip-sized and the
    # output is the only whole-image allocation.
    wr, wg, wb = RGB_TO_YCC[0]
    out = np.empty_like(img.pixels)
    for top in range(0, img.height, STRIP_ROWS):
        px = img.pixels[top : top + STRIP_ROWS]
        g = px[:, :, 0] * wr + px[:, :, 1] * wg + px[:, :, 2] * wb
        # Y >= 0, so trunc(Y + 0.5) is round_half_away(Y), in place.
        g = np.trunc(np.add(g, 0.5, out=g), out=g)
        g = np.clip(g, 0, 255, out=g).astype(np.uint8)
        # One channel at a time: a broadcast store of all three runs slower.
        for channel in range(3):
            out[top : top + STRIP_ROWS, :, channel] = g
    return RgbImage._adopt(out)


def quant_steps(quality: float) -> np.ndarray:
    """Per-coefficient quantization steps: the table scaled, floored at 1."""
    scale = (1.0 - quality) * 2.0 + 0.02
    return np.maximum(1.0, scale * LUMA_QUANT_TABLE)


# The orthonormal 8-point DCT-II as a matrix, row k the k-th basis vector:
# _DCT @ x is dct(x, norm="ortho"). The literals are the FFT's entries (a test
# checks each bit), within 1.1 ulp of the true cosines; np.cos of the rounded
# angles errs by up to 16.
_DCT = np.array(
    [
        [0.3535533905932738, 0.3535533905932738, 0.3535533905932738, 0.3535533905932738,
         0.3535533905932738, 0.3535533905932738, 0.3535533905932738, 0.3535533905932738],
        [0.4903926402016152, 0.41573480615127256, 0.2777851165098011, 0.0975451610080641,
         -0.0975451610080641, -0.2777851165098011, -0.41573480615127256, -0.4903926402016152],
        [0.46193976625564337, 0.19134171618254492, -0.19134171618254492, -0.46193976625564337,
         -0.46193976625564337, -0.19134171618254492, 0.19134171618254492, 0.46193976625564337],
        [0.4157348061512727, -0.09754516100806418, -0.4903926402016151, -0.2777851165098011,
         0.2777851165098011, 0.4903926402016151, 0.09754516100806418, -0.4157348061512727],
        [0.35355339059327373, -0.35355339059327373, -0.35355339059327373, 0.35355339059327373,
         0.35355339059327373, -0.35355339059327373, -0.35355339059327373, 0.35355339059327373],
        [0.2777851165098011, -0.4903926402016151, 0.09754516100806418, 0.4157348061512727,
         -0.4157348061512727, -0.09754516100806418, 0.4903926402016151, -0.2777851165098011],
        [0.19134171618254492, -0.46193976625564337, 0.46193976625564337, -0.19134171618254492,
         -0.19134171618254492, 0.46193976625564337, -0.46193976625564337, 0.19134171618254492],
        [0.0975451610080641, -0.2777851165098011, 0.41573480615127256, -0.4903926402016152,
         0.4903926402016152, -0.41573480615127256, 0.2777851165098011, -0.0975451610080641],
    ]
)

# |fast - exact| on a quotient or a pre-rounding RGB value. With u = 2**-53,
# per 8x8 block and plane, in the Frobenius norm (which neither orthonormal
# transform amplifies):
# - Input: |Y|, |Cb|, |Cr| <= 1.192 * 255 = 304, the largest row sum of
#   |RGB_TO_YCC| times 255, so a block's norm is at most 8 * 304 = 2432,
#   the largest DC term. Each colour product errs by at most 3u * 304.
# - One 8-point pass errs by at most 32u times its input's norm on either
#   path. The matrix product: 8u * sqrt(8) for dot products of 8 terms with
#   unit rows, plus 8u for the entries of _DCT, each within 1.1 ulp. The
#   FFT: Higham's bound for a radix-2 FFT of length up to 16, 4 * 6.7u
#   (Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2).
# - Quotients: 2 paths x 2 passes x 32u x 2432, plus the colour error
#   2 x 8 x 3u x 304, over a step >= 1, plus the exact path's division (u)
#   and the fast path's reciprocal and product (2u) on a quotient <= 2432:
#   3.7e-11.
# - RGB: both paths start from the same rounded coefficients, whose block
#   norm is at most 2432 + |steps / 2| <= 2432 + 1.01 |LUMA_QUANT_TABLE| =
#   2974. So each plane errs by at most 2 x 2 x 32u x 2974 = 4.2e-11; the
#   largest row sum of |YCC_TO_RGB|, 3.813, carries that into RGB, and the
#   colour products add 2 x 3u x 3.813 x 2974: 1.7e-10.
_ERROR_BOUND = 1.7e-10
# Unless a fast value lies within _EPS of a half-integer, no half-integer
# lies between it and the exact value, so both round alike. _EPS is about
# six times the bound (the measured |fast - exact| is under 1e-12).
_EPS = 1e-9


def compress_attack(img: RgbImage, quality: float) -> RgbImage:
    """Degrade like a lossy encoder would: blockwise DCT quantization.

    All three planes share the luminance table; remainder pixels outside the
    8x8 grid pass through unchanged. Copying the remainder instead of
    converting it gives the same bytes, because the colour round trip
    reproduces every 8-bit triple. Each strip of whole block rows goes
    through matrix arithmetic; a block with a quotient or a pre-rounding RGB
    value within ``_EPS`` of a half-integer is redone by ``_exact_blocks``.
    """
    if not 0.0 < quality <= 1.0:
        raise ValueError("quality must lie in (0, 1]")
    pixels = img.pixels
    rows = (img.height // BLOCK_SIZE) * BLOCK_SIZE
    cols = (img.width // BLOCK_SIZE) * BLOCK_SIZE
    out = pixels.copy()
    if rows == 0 or cols == 0:
        return RgbImage._adopt(out)
    # steps[u, v] repeated along each row of blocks, as (u, x).
    row_steps = np.tile(quant_steps(quality), cols // BLOCK_SIZE)
    for top in range(0, rows, STRIP_ROWS):
        strip = (slice(top, min(top + STRIP_ROWS, rows)), slice(0, cols))
        _compress_strip(pixels[strip], out[strip], row_steps)
    return RgbImage._adopt(out)


def _compress_strip(src: np.ndarray, dst: np.ndarray, row_steps: np.ndarray) -> None:
    """Attack one (h, w, 3) strip of whole blocks from ``src`` into ``dst``:
    matrix arithmetic, then ``_exact_blocks`` over every block with a value
    near a rounding tie."""
    height, width = src.shape[:2]
    block_rows, block_cols = height // BLOCK_SIZE, width // BLOCK_SIZE
    coeffs, near = _round_flagging_ties(_fast_quotients(src, row_steps))
    planes_first = (3, block_rows, BLOCK_SIZE, block_cols, BLOCK_SIZE)
    _, rows, _, cols, _ = np.unravel_index(near, planes_first)
    redo = np.zeros((block_rows, block_cols), dtype=bool)
    redo[rows, cols] = True
    coeffs *= row_steps
    rgb = _fast_rgb(coeffs)
    del coeffs  # so the next rounding can take its memory
    rgb, near = _round_flagging_ties(rgb)
    dst[:] = np.clip(rgb, 0, 255, out=rgb)
    blocks = dst.reshape(block_rows, BLOCK_SIZE, block_cols, BLOCK_SIZE, 3)
    rows, _, cols, _, _ = np.unravel_index(near, blocks.shape)
    redo[rows, cols] = True
    rows, cols = np.nonzero(redo)
    if rows.size:
        tied = src.reshape(blocks.shape)[rows, :, cols]
        blocks[rows, :, cols] = _exact_blocks(tied, row_steps[:, :BLOCK_SIZE])


def _fast_quotients(src: np.ndarray, row_steps: np.ndarray) -> np.ndarray:
    """Each DCT coefficient over its step, for every block of an (h, w, 3)
    uint8 strip, planes first as (3 h/8, 8, w): one colour product and two
    products with _DCT."""
    height, width = src.shape[:2]
    planes = np.ascontiguousarray(src.transpose(2, 0, 1), dtype=np.float64)
    quotients = np.empty((3 * height // BLOCK_SIZE, BLOCK_SIZE, width))
    np.matmul(RGB_TO_YCC, planes.reshape(3, -1), out=quotients.reshape(3, -1))
    np.matmul(_DCT, quotients, out=planes.reshape(quotients.shape))
    np.matmul(planes.reshape(-1, BLOCK_SIZE), _DCT.T, out=quotients.reshape(-1, BLOCK_SIZE))
    quotients *= 1.0 / row_steps  # within 2u of the quotient; see _ERROR_BOUND
    return quotients


def _fast_rgb(coeffs: np.ndarray) -> np.ndarray:
    """The pre-rounding RGB, as (h, w, 3), of dequantized (3 h/8, 8, w)
    coefficients: two products with _DCT.T and one colour product. Clobbers
    ``coeffs``."""
    ycc = np.matmul(_DCT.T, coeffs)
    np.matmul(ycc.reshape(-1, BLOCK_SIZE), _DCT, out=coeffs.reshape(-1, BLOCK_SIZE))
    rgb = ycc.reshape(-1, coeffs.shape[-1], 3)
    np.matmul(coeffs.reshape(3, -1).T, YCC_TO_RGB.T, out=rgb.reshape(-1, 3))
    return rgb


def _round_flagging_ties(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.rint(x)``, and the flat indices of the values of x that lie
    within _EPS of a half-integer. Clobbers x. rint rounds halves to even and
    ``round_half_away`` away from zero; an exact half is flagged, so the exact
    path, which defines the bytes, rounds every value where the two differ."""
    rounded = np.rint(x)
    np.subtract(x, rounded, out=x)
    return rounded, np.flatnonzero(np.abs(x, out=x) > 0.5 - _EPS)


def _exact_blocks(blocks: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The arithmetic that defines the attack's bytes, on (n, 8, 8, 3) uint8
    blocks: the colour matrices, FFT ``dctn``/``idctn`` and
    ``round_half_away``."""
    from scipy.fft import dctn, idctn  # here, so that only a tie block loads scipy

    ycc = pixels_to_ycc(blocks)
    coeffs = dctn(ycc, type=2, norm="ortho", axes=(1, 2))
    coeffs /= steps[:, :, np.newaxis]
    coeffs = round_half_away(coeffs)
    coeffs *= steps[:, :, np.newaxis]
    return ycc_to_pixels(idctn(coeffs, type=2, norm="ortho", axes=(1, 2)))


def center_keep_rect(width: int, height: int) -> CropRect:
    """Default crop geometry: the centered half-width by half-height region."""
    return CropRect(width // 4, height // 4, width // 2, height // 2)
