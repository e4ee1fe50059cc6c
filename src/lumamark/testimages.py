"""Deterministic synthetic test images and watermarks.

The robustness experiments need a small reproducible corpus.
`corpus_image(name, size)` renders three procedural value-noise images at
any size (the benchmark also uses 2048) with distinct texture character
(busy, blobby, smooth), a brightened center so block selection lands in the
middle of the frame, and channel values kept away from 0 and 255 so
embedding never saturates. Everything is seeded; tests pin every byte.

Run `python -m lumamark.testimages OUTDIR` to write the corpus to disk.
"""

import sys
from pathlib import Path

import numpy as np

from .pixmap import WATERMARK_SIDE, RgbImage, WatermarkBitmap, write_rgb_image, write_watermark

CORPUS_NAMES = ("fine_texture", "smooth_blobs", "soft_gradient")

_CHANNEL_LO = 12.0
_CHANNEL_HI = 243.0


def _value_noise(rng: np.random.Generator, cells: int, size: int) -> np.ndarray:
    """Bilinear value noise in [0, 1] on a size x size raster, blended
    along x on the grid's rows, then along y."""
    grid = rng.random((cells + 1, cells + 1))
    t = np.linspace(0.0, cells, size, endpoint=False)
    i0 = t.astype(np.int64)
    f = t - i0
    f = f * f * (3.0 - 2.0 * f)  # smoothstep
    i1 = i0 + 1
    rows = grid[:, i0] * (1 - f) + grid[:, i1] * f
    return rows[i0] * (1 - f)[:, None] + rows[i1] * f[:, None]


def _octaves(rng, size, layers):
    field = np.zeros((size, size))
    for cells, weight in layers:
        field += weight * _value_noise(rng, cells, size)
    return field


def _bump(size: int, cy: float, cx: float, radius: float) -> np.ndarray:
    """Raised-cosine disk: 1 at (cy, cx), falling to 0 at `radius`."""
    yy, xx = np.ogrid[0:size, 0:size]
    r = np.hypot(yy - cy, xx - cx) / radius
    return np.where(r < 1.0, 0.5 * (1.0 + np.cos(np.pi * r)), 0.0)


def corpus_image(name: str, size: int = 512) -> RgbImage:
    """One of the three named synthetic corpus images, size x size pixels."""
    if size < 1:
        raise ValueError(f"corpus image size must be at least 1, got {size}")
    if name == "fine_texture":
        rng = np.random.default_rng(20240811)
        luma = _octaves(rng, size, [(6, 0.30), (24, 0.25), (64, 0.25), (128, 0.20)])
        # Dark pocket just off-center: a few near-center blocks fall below the
        # image log-average, so block selection has to skip spiral positions.
        luma -= 0.5 * _bump(size, 0.523 * size, 0.453 * size, 0.088 * size)
        chroma_scale = 0.30
        bump = 0.25
    elif name == "smooth_blobs":
        rng = np.random.default_rng(20240812)
        luma = _octaves(rng, size, [(4, 0.75), (12, 0.25)])
        chroma_scale = 0.45
        bump = 0.55
    elif name == "soft_gradient":
        rng = np.random.default_rng(20240813)
        base = np.linspace(0.0, 1.0, size)
        luma = 0.55 * (0.6 * base[None, :] + 0.4 * base[:, None])
        luma += _octaves(rng, size, [(3, 0.35), (10, 0.10)])
        chroma_scale = 0.25
        bump = 0.55
    else:
        raise ValueError(f"unknown corpus image {name!r}; pick from {CORPUS_NAMES}")

    luma += bump * _bump(size, (size - 1) / 2.0, (size - 1) / 2.0, 0.45 * size)
    c1 = _octaves(rng, size, [(5, 1.0)]) - 0.5
    c2 = _octaves(rng, size, [(9, 1.0)]) - 0.5
    r = luma + chroma_scale * c1
    g = luma - 0.5 * chroma_scale * c1 + 0.4 * chroma_scale * c2
    b = luma - chroma_scale * c2
    lo, hi = min(r.min(), g.min(), b.min()), max(r.max(), g.max(), b.max())
    pixels = np.empty((size, size, 3), dtype=np.uint8)
    for k, p in enumerate((r, g, b)):
        pixels[..., k] = np.rint(_CHANNEL_LO + (p - lo) / (hi - lo) * (_CHANNEL_HI - _CHANNEL_LO))
    return RgbImage._adopt(pixels)


def logo_watermark() -> WatermarkBitmap:
    """Fixed 32x32 logo: disk, bar and corner block; asymmetric under
    transpose and both flips, so bit-order mistakes cannot cancel out."""
    yy, xx = np.ogrid[0:WATERMARK_SIDE, 0:WATERMARK_SIDE]
    bits = np.zeros((WATERMARK_SIDE, WATERMARK_SIDE), dtype=np.uint8)
    bits[(yy - 12) ** 2 + (xx - 11) ** 2 <= 64] = 1
    bits[24:28, 4:21] = 1
    bits[3:9, 23:29] = 1
    bits[16:18, 18:31] = 1
    return WatermarkBitmap(bits)


def random_watermark(seed: int) -> WatermarkBitmap:
    rng = np.random.default_rng(seed)
    return WatermarkBitmap((rng.random((WATERMARK_SIDE, WATERMARK_SIDE)) < 0.5).astype(np.uint8))


def write_corpus(outdir: Path) -> list[Path]:
    """Write the three corpus PPMs and the logo PBM; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in CORPUS_NAMES:
        path = outdir / f"{name}.ppm"
        path.write_bytes(write_rgb_image(corpus_image(name)))
        paths.append(path)
    logo_path = outdir / "logo.pbm"
    logo_path.write_bytes(write_watermark(logo_watermark()))
    paths.append(logo_path)
    return paths


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    outdir = Path(args[0]) if args else Path("corpus")
    for path in write_corpus(outdir):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
