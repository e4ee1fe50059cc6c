"""Image and watermark containers plus bit-exact portable-anymap I/O.

Images travel as binary PPM (P6, maxval 255); watermarks as PBM (P1 or P4,
always 32x32). PBM ink convention (1 = black) is inverted at this boundary:
everywhere inside the toolkit, bit 1 means white (pixel value 255).
"""

import numpy as np

from .errors import MalformedHeader, TruncatedPayload, WrongDimensions

WATERMARK_SIDE = 32
WATERMARK_BITS = WATERMARK_SIDE * WATERMARK_SIDE
_WHITESPACE = b" \t\n\r\v\f"  # the PNM header separators


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


class _Tokenizer:
    """Pulls whitespace-separated header tokens from PNM bytes, skipping # comments."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def next_token(self) -> bytes:
        data, n = self.data, len(self.data)
        i = self.pos
        while i < n:
            c = data[i]
            if c == 0x23:  # '#'
                while i < n and data[i] not in (0x0A, 0x0D):
                    i += 1
            elif c in _WHITESPACE:
                i += 1
            else:
                break
        if i >= n:
            raise MalformedHeader("unexpected end of header")
        start = i
        while i < n and data[i] not in _WHITESPACE and data[i] != 0x23:
            i += 1
        self.pos = i
        return data[start:i]

    def next_int(self) -> int:
        tok = self.next_token()
        if not tok.isdigit():
            raise MalformedHeader(f"expected integer, got {tok!r}")
        return int(tok)

    def start_of_payload(self) -> int:
        # Binary payload begins after exactly one whitespace byte.
        if self.pos >= len(self.data):
            raise MalformedHeader("missing payload separator")
        if self.data[self.pos] not in _WHITESPACE:
            raise MalformedHeader("header not followed by whitespace")
        return self.pos + 1


def _read_header(data: bytes, magics: tuple[bytes, ...]) -> tuple[_Tokenizer, bytes, int, int]:
    """Parse the magic (one of ``magics``), width and height; return them with
    the tokenizer positioned after the height."""
    tok = _Tokenizer(data)
    magic = tok.next_token()
    if magic not in magics:
        expected = " or ".join(m.decode() for m in magics)
        raise MalformedHeader(f"expected magic {expected}, got {magic!r}")
    width = tok.next_int()
    height = tok.next_int()
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    return tok, magic, width, height


def _payload(tok: _Tokenizer, size: int) -> np.ndarray:
    """The ``size`` payload bytes after the header, viewed in place, not
    copied. Over a bytearray the view stays writable, so callers copy any
    buffer that is not ``bytes``."""
    start = tok.start_of_payload()
    found = len(tok.data) - start
    if found < size:
        raise TruncatedPayload(f"need {size} payload bytes, found {found}")
    if found > size:
        raise MalformedHeader(f"{found - size} trailing bytes after payload")
    return np.frombuffer(tok.data, np.uint8, count=size, offset=start)


def read_rgb_image(data: bytes) -> RgbImage:
    """Decode a binary PPM (P6, maxval 255) bit-exactly."""
    tok, _, width, height = _read_header(data, (b"P6",))
    maxval = tok.next_int()
    if maxval != 255:
        raise MalformedHeader(f"only maxval 255 is supported, got {maxval}")
    pixels = _payload(tok, 3 * width * height).reshape(height, width, 3)
    # A view of immutable bytes can be adopted; any other buffer is copied.
    return RgbImage._adopt(pixels) if type(data) is bytes else RgbImage(pixels)


def write_rgb_image(img: RgbImage) -> bytes:
    """Encode to canonical P6: single-space header fields, no comments."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return b"".join((header, img.pixels))


def read_watermark(data: bytes) -> WatermarkBitmap:
    """Decode a 32x32 PBM (P1 ascii or P4 binary), inverting ink to white=1."""
    tok, magic, width, height = _read_header(data, (b"P1", b"P4"))
    if (width, height) != (WATERMARK_SIDE, WATERMARK_SIDE):
        raise WrongDimensions(f"watermark must be 32x32, got {width}x{height}")
    if magic == b"P1":
        ink = _read_p1_digits(tok)
    else:
        packed = _payload(tok, WATERMARK_BITS // 8)
        ink = np.unpackbits(packed).reshape(WATERMARK_SIDE, WATERMARK_SIDE)
    return WatermarkBitmap(1 - ink)  # PBM 1 = black ink; stored 1 = white


def _read_p1_digits(tok: _Tokenizer) -> np.ndarray:
    """The 1024 ASCII digits after a P1 header; digits may run together."""
    digits = bytearray()
    while len(digits) < WATERMARK_BITS:
        try:
            token = tok.next_token()
        except MalformedHeader:
            raise MalformedHeader(
                f"need {WATERMARK_BITS} P1 pixels, found {len(digits)}"
            ) from None
        invalid = token.translate(None, b"01")
        if invalid:
            raise MalformedHeader(f"invalid P1 pixel byte {invalid[:1]!r}")
        digits += token
    if len(digits) > WATERMARK_BITS or tok.data[tok.pos:].strip(_WHITESPACE):
        raise MalformedHeader("trailing data after P1 pixels")
    ink = np.frombuffer(digits, dtype=np.uint8) - ord("0")
    return ink.reshape(WATERMARK_SIDE, WATERMARK_SIDE)


def write_watermark(w: WatermarkBitmap) -> bytes:
    """Encode to canonical P4 with the same white=1 inversion; read∘write is identity."""
    header = f"P4\n{WATERMARK_SIDE} {WATERMARK_SIDE}\n".encode("ascii")
    ink = (1 - w.bits).astype(np.uint8)
    return header + np.packbits(ink, axis=1).tobytes()
