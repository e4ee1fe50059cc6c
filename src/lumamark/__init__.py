"""Spatial-domain watermarking in the luminance of log-average-selected blocks.

A 32x32 monochrome watermark is embedded by nudging the Y value of 1024
pixels inside 16 bright 8x8 blocks chosen spirally from the image center,
and recovered non-blind by comparing luminance signs against the original.
"""

from . import attacks, cli, codec, colorspace, metrics, pixmap, selection
from .attacks import CropRect, compress_attack, crop_attack, grayscale_attack
from .codec import embed, extract
from .errors import (
    DimensionMismatch,
    EmptyRegion,
    ImageTooSmall,
    InsufficientCandidates,
    LumamarkError,
    MalformedHeader,
    RectOutOfBounds,
    TruncatedPayload,
    WrongDimensions,
)
from .metrics import decide, psnr, similarity
from .pixmap import (
    RgbImage,
    WatermarkBitmap,
    read_rgb_image,
    read_watermark,
    write_rgb_image,
    write_watermark,
)
from .selection import (
    BlockRef,
    SelectionPlan,
    candidate_blocks,
    log_average_luminance,
    partition_grid,
    select_blocks,
    spiral_order,
)

__version__ = "0.1.0"

__all__ = [
    "BlockRef",
    "CropRect",
    "DimensionMismatch",
    "EmptyRegion",
    "ImageTooSmall",
    "InsufficientCandidates",
    "LumamarkError",
    "MalformedHeader",
    "RectOutOfBounds",
    "RgbImage",
    "SelectionPlan",
    "TruncatedPayload",
    "WatermarkBitmap",
    "WrongDimensions",
    "attacks",
    "candidate_blocks",
    "cli",
    "codec",
    "colorspace",
    "compress_attack",
    "crop_attack",
    "decide",
    "embed",
    "extract",
    "grayscale_attack",
    "log_average_luminance",
    "metrics",
    "partition_grid",
    "pixmap",
    "psnr",
    "read_rgb_image",
    "read_watermark",
    "select_blocks",
    "selection",
    "similarity",
    "spiral_order",
    "write_rgb_image",
    "write_watermark",
]
