"""Exception types raised by the watermarking toolkit.

The file-format errors are also ``ValueError``s, as ``json.JSONDecodeError``
is: the command-line tools exit 1 on them, as on any ``ValueError`` or
``OSError``, and exit 2 on every other toolkit error.
"""


class LumamarkError(Exception):
    """Base class for all toolkit errors; the CLI exits 2 unless a subclass says 1."""


class MalformedHeader(LumamarkError, ValueError):
    """PNM file has a bad magic number, dimensions, maxval, or stray payload (CLI exit 1)."""


class TruncatedPayload(LumamarkError, ValueError):
    """PNM payload holds fewer bytes than the header promises (CLI exit 1)."""


class WrongDimensions(LumamarkError, ValueError):
    """Watermark bitmap file is not 32x32 (CLI exit 1)."""


class ImageTooSmall(LumamarkError):
    """Image does not admit even a single 8x8 block (CLI exit 2)."""


class InsufficientCandidates(LumamarkError):
    """Fewer than 16 blocks reach the whole-image log-average luminance (CLI exit 2)."""


class DimensionMismatch(LumamarkError):
    """Two images (or planes) that must agree in size do not (CLI exit 2)."""


class RectOutOfBounds(LumamarkError):
    """Crop rectangle is empty or falls outside the image (CLI exit 2)."""
