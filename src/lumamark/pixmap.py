"""Image and watermark containers plus bit-exact portable-anymap I/O.

Images travel as binary PPM (P6, maxval 255); watermarks as PBM (P1 or P4,
always 32x32). PBM ink convention (1 = black) is inverted at this boundary:
everywhere inside the toolkit, bit 1 means white (pixel value 255).

The readers take any bytes-like object. ``#`` comments may stand anywhere
between header fields and between P1 digits; a comment runs to the end of
its line. Exactly one separator byte precedes a binary (P6 or P4) payload.
The pixels of a ``bytes`` input are adopted without a copy; any other
buffer is copied, so later writes to it do not reach the image.
``RgbFile`` checks an open P6 file as ``read_rgb_image`` checks its bytes,
with the same errors, and then reads only the rows it is asked for.
"""

import os
import re

import numpy as np

from .errors import MalformedHeader, TruncatedPayload, WrongDimensions

WATERMARK_SIDE = 32
WATERMARK_BITS = WATERMARK_SIDE * WATERMARK_SIDE
_WHITESPACE = b" \t\n\r\v\f"  # the PNM header separators
# Separators and "#" comments (each to the end of its line), then one field.
# It always matches, and the field is empty only at the end of the data.
_FIELD = re.compile(rb"(?:[ \t\n\r\v\f]|#[^\n\r]*)*([^ \t\n\r\v\f#]*)")


class RgbImage:
    """Immutable 8-bit interleaved RGB raster."""

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"expected (height, width, 3) array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"pixel array must be integer-typed, got {arr.dtype}")
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("channel values must lie in [0, 255]")
        # C order, so the pixels are one contiguous buffer for write_rgb_image.
        arr = arr.astype(np.uint8, order="C", copy=True)
        arr.flags.writeable = False
        self._pixels = arr

    @classmethod
    def _adopt(cls, pixels: np.ndarray) -> "RgbImage":
        """Wrap a C-ordered (height, width, 3) uint8 array without copying
        it: a fresh array that the caller hands over and never touches
        again, or a view of an immutable ``bytes`` object. It is marked
        read-only here."""
        pixels.flags.writeable = False
        img = cls.__new__(cls)
        img._pixels = pixels
        return img

    @property
    def pixels(self) -> np.ndarray:
        """(height, width, 3) uint8, read-only."""
        return self._pixels

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    def rows(self, top: int, stop: int) -> np.ndarray:
        """Rows top to stop - 1, as a read-only (stop - top, width, 3) view."""
        return self._pixels[top:stop]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RgbImage):
            return NotImplemented
        return self._pixels.shape == other._pixels.shape and bool(
            np.array_equal(self._pixels, other._pixels)
        )

    def __repr__(self) -> str:
        return f"RgbImage({self.width}x{self.height})"


class WatermarkBitmap:
    """Immutable 32x32 binary matrix; bit 1 = white (255), bit 0 = black (0)."""

    def __init__(self, bits: np.ndarray):
        arr = np.asarray(bits)
        if arr.shape != (WATERMARK_SIDE, WATERMARK_SIDE):
            raise ValueError(f"watermark must be {WATERMARK_SIDE}x{WATERMARK_SIDE}, got {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("watermark bits must be 0 or 1")
        arr = arr.astype(np.uint8, copy=True)
        arr.flags.writeable = False
        self._bits = arr

    @property
    def bits(self) -> np.ndarray:
        """(32, 32) uint8 of {0, 1}, read-only."""
        return self._bits

    def __eq__(self, other) -> bool:
        if not isinstance(other, WatermarkBitmap):
            return NotImplemented
        return bool(np.array_equal(self._bits, other._bits))

    def __repr__(self) -> str:
        return f"WatermarkBitmap(white={int(self._bits.sum())}/1024)"


def _field(data: bytes, pos: int) -> tuple[bytes, int]:
    """The next header field at or after ``pos``, and the offset just past it."""
    m = _FIELD.match(data, pos)
    if not m[1]:
        raise MalformedHeader("unexpected end of header")
    return m[1], m.end()


def _number(data: bytes, pos: int) -> tuple[int, int]:
    field, pos = _field(data, pos)
    if not field.isdigit():
        raise MalformedHeader(f"expected integer, got {field!r}")
    return int(field), pos


def _header(data: bytes, magics: tuple[bytes, ...]) -> tuple[bytes, int, int, int]:
    """Read the magic (one of ``magics``), width, height and, for P6, a maxval
    of 255, checking each field as it is read. Return the magic, width, height
    and the offset just past the last field."""
    magic, pos = _field(data, 0)
    if magic not in magics:
        expected = " or ".join(m.decode() for m in magics)
        raise MalformedHeader(f"expected magic {expected}, got {magic!r}")
    width, pos = _number(data, pos)
    height, pos = _number(data, pos)
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    if magic == b"P6":
        maxval, pos = _number(data, pos)
        if maxval != 255:
            raise MalformedHeader(f"only maxval 255 is supported, got {maxval}")
    return magic, width, height, pos


def _check_payload(data: bytes, offset: int, length: int, size: int) -> None:
    """Check that an input of ``length`` bytes, which starts with ``data``,
    has one separator byte at ``offset`` and then exactly ``size`` bytes."""
    if offset >= length:
        raise MalformedHeader("missing payload separator")
    if data[offset] not in _WHITESPACE:
        raise MalformedHeader("header not followed by whitespace")
    found = length - offset - 1
    if found < size:
        raise TruncatedPayload(f"need {size} payload bytes, found {found}")
    if found > size:
        raise MalformedHeader(f"{found - size} trailing bytes after payload")


def _payload(data: bytes, offset: int, size: int) -> np.ndarray:
    """The checked payload of ``data``, viewed in place, not copied. Over a
    mutable buffer the view stays writable, so callers copy any buffer that
    is not ``bytes``."""
    _check_payload(data, offset, len(data), size)
    return np.frombuffer(data, np.uint8, count=size, offset=offset + 1)


def read_rgb_image(data: bytes) -> RgbImage:
    """Decode a binary PPM (P6, maxval 255) bit-exactly."""
    _, width, height, offset = _header(data, (b"P6",))
    pixels = _payload(data, offset, 3 * width * height).reshape(height, width, 3)
    # A view of immutable bytes can be adopted; any other buffer is copied.
    return RgbImage._adopt(pixels) if type(data) is bytes else RgbImage(pixels)


def rgb_header(width: int, height: int) -> bytes:
    """The canonical P6 header: single-space header fields, no comments."""
    return f"P6\n{width} {height}\n255\n".encode("ascii")


def write_rgb_image(img: RgbImage) -> bytes:
    """Encode to canonical P6: ``rgb_header`` and the pixels."""
    return b"".join((rgb_header(img.width, img.height), img.pixels))


class RgbFile:
    """A P6 file open for binary reading, whose rows are read on demand. It
    checks the header, separator and length as ``read_rgb_image`` does. It
    reads with ``os.pread``, so it needs a POSIX system."""

    _PREFIX = 4096  # bytes of the first header read

    def __init__(self, fh):
        self._fd, n = fh.fileno(), self._PREFIX
        while True:
            data = os.pread(self._fd, n, 0)
            try:
                _, self.width, self.height, offset = _header(data, (b"P6",))
                if offset < len(data) or len(data) < n:
                    break
            except MalformedHeader:
                if len(data) < n:  # parsed from the whole file
                    raise
            n *= 16  # a field or comment may run on past the bytes read
        _check_payload(data, offset, os.fstat(self._fd).st_size, 3 * self.width * self.height)
        self._start = offset + 1

    def rows(self, top: int, stop: int) -> np.ndarray:
        """Rows top to stop - 1, as a read-only (stop - top, width, 3) array."""
        row, count = 3 * self.width, stop - top
        data = os.pread(self._fd, row * count, self._start + row * top)
        if len(data) < row * count:  # the file shrank after it was checked
            need = 3 * self.width * self.height
            raise TruncatedPayload(f"need {need} payload bytes, found {row * top + len(data)}")
        return np.frombuffer(data, np.uint8).reshape(count, self.width, 3)


def read_watermark(data: bytes) -> WatermarkBitmap:
    """Decode a 32x32 PBM (P1 ascii or P4 binary), inverting ink to white=1."""
    magic, width, height, offset = _header(data, (b"P1", b"P4"))
    if (width, height) != (WATERMARK_SIDE, WATERMARK_SIDE):
        raise WrongDimensions(f"watermark must be 32x32, got {width}x{height}")
    if magic == b"P1":
        # The raster is every field after the header; digits may run together.
        digits = b"".join(_FIELD.findall(data, offset))
        invalid = digits.translate(None, b"01")
        if invalid:
            raise MalformedHeader(f"invalid P1 pixel byte {invalid[:1]!r}")
        if len(digits) < WATERMARK_BITS:
            raise MalformedHeader(f"need {WATERMARK_BITS} P1 pixels, found {len(digits)}")
        if len(digits) > WATERMARK_BITS:
            raise MalformedHeader("trailing data after P1 pixels")
        ink = np.frombuffer(digits, np.uint8) - ord("0")
    else:
        ink = np.unpackbits(_payload(data, offset, WATERMARK_BITS // 8))
    return WatermarkBitmap(1 - ink.reshape(WATERMARK_SIDE, WATERMARK_SIDE))


def write_watermark(w: WatermarkBitmap) -> bytes:
    """Encode to canonical P4 with the same white=1 inversion; read∘write is identity."""
    header = f"P4\n{WATERMARK_SIDE} {WATERMARK_SIDE}\n".encode("ascii")
    ink = (1 - w.bits).astype(np.uint8)
    return header + np.packbits(ink, axis=1).tobytes()
