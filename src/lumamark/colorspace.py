"""RGB <-> YCbCr conversion: the full pair for attacks, its Y row for the rest.

The transform pair is YIQ-style: Y carries luminance with weights
(0.299, 0.587, 0.114) and the two chroma planes are zero on gray pixels.
Selection takes Y alone as ``pixels @ RGB_TO_YCC[0]``, which agrees
with the Y of ``pixels_to_ycc`` to within a few ulp, not bit for bit.
Forward conversion keeps full real precision (no rounding, no clamping);
only the reconstruction back to 8-bit RGB quantizes. The pair is close
enough to mutually inverse that reconstruction of an unmodified image
reproduces every 8-bit triple exactly (worst-case pre-rounding error is
0.07038 of a quantization step over all 16.7M triples; see the colorspace
regression tests).
"""

import numpy as np

from .errors import DimensionMismatch
from .pixmap import RgbImage

RGB_TO_YCC = np.array(
    [
        [0.299, 0.587, 0.114],
        [0.596, -0.275, -0.321],
        [0.212, -0.523, 0.311],
    ]
)

YCC_TO_RGB = np.array(
    [
        [1.0, 0.956, 0.620],
        [1.0, -0.272, -0.647],
        [1.0, -1.108, 1.705],
    ]
)


# Whole-image passes run over strips of this many rows: a multiple of the
# 8-pixel block, and small enough that a strip's float64 temporaries stay in
# L2 at 512-2048 px widths (32 rows ran within 10% of the fastest height,
# 8-128 tried, at both widths). Its users are grayscale_attack,
# compress_attack, psnr and corpus_image; selection bounds its reads by
# pixels instead (selection._LEAF).
STRIP_ROWS = 32


class YcbcrImage:
    """Real-valued Y/Cb/Cr planes; Y is nominally [0, 255] but never clamped."""

    def __init__(self, y: np.ndarray, cb: np.ndarray, cr: np.ndarray):
        planes = []
        for plane in (y, cb, cr):
            arr = np.asarray(plane, dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(f"plane must be 2-D, got shape {arr.shape}")
            arr = arr.copy()
            arr.flags.writeable = False
            planes.append(arr)
        if not (planes[0].shape == planes[1].shape == planes[2].shape):
            raise DimensionMismatch("Y/Cb/Cr planes differ in shape")
        self._y, self._cb, self._cr = planes

    @property
    def y(self) -> np.ndarray:
        return self._y

    @property
    def cb(self) -> np.ndarray:
        return self._cb

    @property
    def cr(self) -> np.ndarray:
        return self._cr

    @property
    def width(self) -> int:
        return self._y.shape[1]

    @property
    def height(self) -> int:
        return self._y.shape[0]

    def __repr__(self) -> str:
        return f"YcbcrImage({self.width}x{self.height})"


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (deterministic everywhere)."""
    out = np.copysign(0.5, x)
    out += x
    return np.trunc(out, out=out)


def pixels_to_ycc(pixels: np.ndarray) -> np.ndarray:
    """The (h, w, 3) float64 Y/Cb/Cr array of (h, w, 3) 8-bit channels."""
    return pixels.astype(np.float64) @ RGB_TO_YCC.T


def ycc_to_pixels(ycc: np.ndarray) -> np.ndarray:
    """The (h, w, 3) uint8 channels of a Y/Cb/Cr array: the inverse matrix,
    halves rounded away from zero, clamped to [0, 255]."""
    rgb = round_half_away(ycc @ YCC_TO_RGB.T)
    return np.clip(rgb, 0, 255, out=rgb).astype(np.uint8)


def rgb_to_ycbcr(img: RgbImage) -> YcbcrImage:
    """Apply the forward matrix per pixel in full real precision: the
    whole-image reference conversion, ``pixels_to_ycc`` split into planes."""
    ycc = pixels_to_ycc(img.pixels)
    return YcbcrImage(ycc[:, :, 0], ycc[:, :, 1], ycc[:, :, 2])


def ycbcr_to_rgb(img: YcbcrImage) -> RgbImage:
    """Apply the inverse matrix, round halves away from zero, clamp to [0, 255]."""
    return RgbImage(ycc_to_pixels(np.stack((img.y, img.cb, img.cr), axis=-1)))
