"""Deterministic synthetic test images and watermarks.

The robustness experiments need a small reproducible corpus.
`corpus_image(name, size)` renders three procedural value-noise images at
any size (the benchmark also uses 2048) with distinct texture character
(busy, blobby, smooth), a brightened center so block selection lands in the
middle of the frame, and channel values kept away from 0 and 255 so
embedding never saturates. Everything is seeded; tests pin every byte.

Images render ``STRIP_ROWS`` rows at a time into one float RGB stack, then
quantize it in place: a 2048 px image peaks at 110-114 MiB under tracemalloc,
of which the three float planes take 96 and the uint8 result 12.

Run `python -m lumamark.testimages OUTDIR` to write the corpus to disk.
"""

import sys
from pathlib import Path

import numpy as np

from .colorspace import STRIP_ROWS
from .pixmap import WATERMARK_SIDE, RgbImage, WatermarkBitmap, write_rgb_image, write_watermark

CORPUS_NAMES = ("fine_texture", "smooth_blobs", "soft_gradient")

_CHANNEL_LO = 12.0
_CHANNEL_HI = 243.0


def _value_noise(rng: np.random.Generator, cells: int, size: int) -> tuple[np.ndarray, ...]:
    """Bilinear value noise in [0, 1] on a size x size raster, as separable tables:
    the grid blended along x on its rows, and the indices and weights along y."""
    grid = rng.random((cells + 1, cells + 1))
    t = np.linspace(0.0, cells, size, endpoint=False)
    i0 = t.astype(np.int64)
    f = t - i0
    f = f * f * (3.0 - 2.0 * f)  # smoothstep
    i1 = i0 + 1
    rows = grid[:, i0] * (1 - f) + grid[:, i1] * f
    return rows, i0, i1, f


def _octaves(layers, ys: slice) -> np.ndarray:
    """The weighted sum of the noise layers on the raster rows ``ys``."""
    return sum(
        weight * (rows[i0[ys]] * (1 - f[ys])[:, None] + rows[i1[ys]] * f[ys, None])
        for weight, (rows, i0, i1, f) in layers
    )


def _bump(ys: slice, size: int, cy: float, cx: float, radius: float) -> np.ndarray:
    """Raised-cosine disk on the rows ``ys``: 1 at (cy, cx), falling to 0 at `radius`."""
    yy, xx = np.ogrid[ys, 0:size]
    r = np.hypot(yy - cy, xx - cx) / radius
    return np.where(r < 1.0, 0.5 * (1.0 + np.cos(np.pi * r)), 0.0)


def corpus_image(name: str, size: int = 512) -> RgbImage:
    """One of the three named synthetic corpus images, size x size pixels."""
    if size < 1:
        raise ValueError(f"corpus image size must be at least 1, got {size}")
    if name == "fine_texture":
        seed, octaves = 20240811, [(6, 0.30), (24, 0.25), (64, 0.25), (128, 0.20)]
        chroma_scale, bump = 0.30, 0.25
    elif name == "smooth_blobs":
        seed, octaves = 20240812, [(4, 0.75), (12, 0.25)]
        chroma_scale, bump = 0.45, 0.55
    elif name == "soft_gradient":
        seed, octaves = 20240813, [(3, 0.35), (10, 0.10)]
        chroma_scale, bump = 0.25, 0.55
    else:
        raise ValueError(f"unknown corpus image {name!r}; pick from {CORPUS_NAMES}")
    # Every grid is drawn before the first strip: the draw order is part of the bytes.
    rng = np.random.default_rng(seed)
    luma_layers = [(weight, _value_noise(rng, cells, size)) for cells, weight in octaves]
    c1_layers = [(1.0, _value_noise(rng, 5, size))]
    c2_layers = [(1.0, _value_noise(rng, 9, size))]
    base = np.linspace(0.0, 1.0, size)

    rgb = np.empty((3, size, size))
    for top in range(0, size, STRIP_ROWS):
        ys = slice(top, min(top + STRIP_ROWS, size))
        luma = _octaves(luma_layers, ys)
        if name == "fine_texture":
            # Dark pocket just off-center: a few near-center blocks fall below the
            # image log-average, so block selection has to skip spiral positions.
            luma -= 0.5 * _bump(ys, size, 0.523 * size, 0.453 * size, 0.088 * size)
        elif name == "soft_gradient":
            luma += 0.55 * (0.6 * base[None, :] + 0.4 * base[ys, None])
        luma += bump * _bump(ys, size, (size - 1) / 2.0, (size - 1) / 2.0, 0.45 * size)
        c1 = _octaves(c1_layers, ys) - 0.5
        c2 = _octaves(c2_layers, ys) - 0.5
        rgb[0, ys] = luma + chroma_scale * c1
        rgb[1, ys] = luma - 0.5 * chroma_scale * c1 + 0.4 * chroma_scale * c2
        rgb[2, ys] = luma - chroma_scale * c2

    lo, hi = rgb.min(), rgb.max()
    pixels = np.empty((size, size, 3), dtype=np.uint8)
    for top in range(0, size, STRIP_ROWS):
        strip = rgb[:, top : top + STRIP_ROWS]  # quantized in place
        strip -= lo
        strip /= hi - lo
        strip *= _CHANNEL_HI - _CHANNEL_LO
        strip += _CHANNEL_LO
        pixels[top : top + STRIP_ROWS] = np.rint(strip, out=strip).transpose(1, 2, 0)
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
