"""Shared builders and independent oracles for the test suite.

The oracles deliberately avoid the library's own code paths: the spiral
oracle walks the lattice with a visited-set turning rule instead of run
lengths, the candidate oracle recomputes every log-average with plain
math over Python loops, and the dense codec oracle converts and rebuilds
whole images where the library touches only the carrier pixels. The dense
PSNR oracle converts both whole images and subtracts their Y planes, where
the library takes the luminance of the channel difference strip by strip.
The dense compression oracle converts whole images and transforms each
plane on its own, where the library fuses the three planes per row strip.
"""

import math
import os
from pathlib import Path

import numpy as np
from scipy.fft import dctn, idctn

from lumamark.attacks import quant_steps
from lumamark.codec import DEFAULT_ALPHA, embedded_pixel_coords
from lumamark.colorspace import YcbcrImage, rgb_to_ycbcr, ycbcr_to_rgb
from lumamark.pixmap import RgbImage, WatermarkBitmap
from lumamark.selection import BLOCK_SIZE, TIE_TOLERANCE, select_blocks


ROOT = Path(__file__).resolve().parent.parent


def subprocess_env() -> dict[str, str]:
    """The environment with the checkout's src/ first on PYTHONPATH, so a
    child interpreter imports this lumamark without an install."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def gray_image(value: int, width: int = 512, height: int = 512) -> RgbImage:
    return RgbImage(np.full((height, width, 3), value, dtype=np.uint8))


def ycc_from_y(y_plane: np.ndarray) -> YcbcrImage:
    y = np.asarray(y_plane, dtype=np.float64)
    return YcbcrImage(y, np.zeros_like(y), np.zeros_like(y))


def random_image(rng: np.random.Generator, width: int, height: int) -> RgbImage:
    return RgbImage(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


def random_bitmap(rng: np.random.Generator) -> WatermarkBitmap:
    return WatermarkBitmap((rng.random((32, 32)) < 0.5).astype(np.uint8))


def checkerboard_bitmap() -> WatermarkBitmap:
    yy, xx = np.mgrid[0:32, 0:32]
    return WatermarkBitmap(((yy + xx) % 2).astype(np.uint8))


def spiral_oracle(grid_cols: int, grid_rows: int) -> list[tuple[int, int]]:
    """Independent center-out spiral: visited-set turning rule on the lattice.

    Start at (cols//2, rows//2) facing right; after every step, turn to the
    next clockwise direction whenever the lattice cell there is unvisited.
    Emits (col, row) for in-grid cells only, until the grid is covered.
    """
    total = grid_cols * grid_rows
    col, row = grid_cols // 2, grid_rows // 2
    visited = {(col, row)}
    emitted = [(col, row)]
    directions = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # right, down, left, up
    facing = 0
    while len(emitted) < total:
        dc, dr = directions[facing]
        col, row = col + dc, row + dr
        visited.add((col, row))
        if 0 <= col < grid_cols and 0 <= row < grid_rows:
            emitted.append((col, row))
        turn = (facing + 1) % 4
        tc, tr = directions[turn]
        if (col + tc, row + tr) not in visited:
            facing = turn
    return emitted


def log_mean_oracle(values, delta: float) -> float:
    """Plain-math mean of log(delta + v) over a flat iterable."""
    flat = [float(v) for v in np.asarray(values).reshape(-1)]
    return sum(math.log(delta + v) for v in flat) / len(flat)


def log_avg_oracle(values, delta: float) -> float:
    """Plain-math log-average luminance over a flat iterable."""
    return math.exp(log_mean_oracle(values, delta))


def candidate_oracle(y: np.ndarray, delta: float) -> set[tuple[int, int]]:
    """Brute-force candidate set: per-block and whole-image log statistics
    recomputed independently (ties use the library's published tolerance);
    returns {(col, row)}."""
    height, width = y.shape
    image_mean = log_mean_oracle(y, delta)
    out = set()
    for row in range(height // 8):
        for col in range(width // 8):
            block = y[row * 8 : row * 8 + 8, col * 8 : col * 8 + 8]
            if log_mean_oracle(block, delta) >= image_mean - TIE_TOLERANCE:
                out.add((col, row))
    return out


def delta_sensitive_image() -> RgbImage:
    """128x128: gray 200 above gray 20, with a 0/255 checkerboard in block
    (8, 8), the grid center. At the default delta the checkerboard's black
    pixels sink its log-average and the plan starts at block (7, 7); at
    delta 1000 the block qualifies and the plan starts at (8, 8)."""
    pixels = np.full((128, 128, 3), 200, dtype=np.uint8)
    pixels[64:] = 20
    yy, xx = np.indices((8, 8))
    pixels[64:72, 64:72] = np.where((yy + xx) % 2 == 0, 0, 255)[..., None]
    return RgbImage(pixels)


# Plan header values no selection can produce: delta and the log-average
# are always finite and positive.
IMPOSSIBLE_PLAN_VALUES = [
    ("delta", "nan"),
    ("delta", "inf"),
    ("delta", "0.0"),
    ("delta", "-0.0001"),
    ("image_log_avg", "-120.1"),
    ("image_log_avg", "0.0"),
    ("image_log_avg", "inf"),
    ("image_log_avg", "nan"),
]


def edit_plan_field(text: str, field: str, value: str) -> str:
    """A plan dump with one header line's value replaced."""
    lines = [f"{field}={value}" if ln.startswith(f"{field}=") else ln for ln in text.splitlines()]
    return "\n".join(lines) + "\n"


def roundtrip_error(img: RgbImage) -> tuple[int, int, int]:
    """Per-channel max absolute error of ycbcr_to_rgb(rgb_to_ycbcr(img))."""
    restored = ycbcr_to_rgb(rgb_to_ycbcr(img))
    diff = np.abs(
        img.pixels.astype(np.int16) - restored.pixels.astype(np.int16)
    ).reshape(-1, 3)
    r, g, b = diff.max(axis=0)
    return int(r), int(g), int(b)


def dense_embed(
    original: RgbImage, watermark: WatermarkBitmap, alpha: int = DEFAULT_ALPHA, plan=None
) -> RgbImage:
    """Reference embed: convert the whole image, add +-alpha to the carriers'
    Y, rebuild every pixel from YCbCr."""
    ycc = rgb_to_ycbcr(original)
    if plan is None:
        plan = select_blocks(ycc)
    ys, xs = embedded_pixel_coords(plan)
    y = ycc.y.copy()
    y[ys, xs] += alpha * np.where(watermark.bits.reshape(-1) == 1, 1.0, -1.0)
    return ycbcr_to_rgb(YcbcrImage(y, ycc.cb, ycc.cr))


def dense_extract(original: RgbImage, watermarked: RgbImage, plan=None) -> WatermarkBitmap:
    """Reference extract: convert both whole images, read the sign of the Y
    difference at the carriers (zero decodes white)."""
    ycc_orig = rgb_to_ycbcr(original)
    ycc_marked = rgb_to_ycbcr(watermarked)
    if plan is None:
        plan = select_blocks(ycc_orig)
    ys, xs = embedded_pixel_coords(plan)
    diff = ycc_marked.y[ys, xs] - ycc_orig.y[ys, xs]
    return WatermarkBitmap((diff >= 0).astype(np.uint8).reshape(32, 32))


def dense_psnr(reference: RgbImage, test: RgbImage) -> float:
    """Reference PSNR: convert both whole images through all three planes and
    sum the squared differences of their Y planes."""
    y_ref = rgb_to_ycbcr(reference).y
    y_test = rgb_to_ycbcr(test).y
    ssd = float(((y_ref - y_test) ** 2).sum())
    if ssd == 0.0:
        return math.inf
    n = reference.width * reference.height
    return 10.0 * math.log10(255.0**2 * n / ssd)


def _dense_quantize_plane(plane: np.ndarray, steps: np.ndarray) -> np.ndarray:
    rows = (plane.shape[0] // BLOCK_SIZE) * BLOCK_SIZE
    cols = (plane.shape[1] // BLOCK_SIZE) * BLOCK_SIZE
    if rows == 0 or cols == 0:
        return plane.copy()
    blocks = (
        plane[:rows, :cols]
        .reshape(rows // BLOCK_SIZE, BLOCK_SIZE, cols // BLOCK_SIZE, BLOCK_SIZE)
        .transpose(0, 2, 1, 3)
    )
    coeffs = dctn(blocks, type=2, norm="ortho", axes=(2, 3)) / steps
    coeffs = np.trunc(coeffs + np.copysign(0.5, coeffs)) * steps
    restored = idctn(coeffs, type=2, norm="ortho", axes=(2, 3))
    out = plane.copy()
    out[:rows, :cols] = restored.transpose(0, 2, 1, 3).reshape(rows, cols)
    return out


def dense_compress_attack(img: RgbImage, quality: float) -> RgbImage:
    """Reference compression: convert the whole image, DCT-quantize each
    plane's full 8x8 blocks separately (rounding halves away from zero with
    its own two-temporary formula), rebuild every pixel from YCbCr
    (remainder pixels go through the colour round trip unchanged)."""
    ycc = rgb_to_ycbcr(img)
    steps = quant_steps(quality)
    planes = [_dense_quantize_plane(p, steps) for p in (ycc.y, ycc.cb, ycc.cr)]
    return ycbcr_to_rgb(YcbcrImage(*planes))
