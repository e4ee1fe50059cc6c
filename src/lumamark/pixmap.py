"""Image and watermark containers plus bit-exact portable-anymap I/O.

Images travel as binary PPM (P6, maxval 255); watermarks as PBM (P1 or P4,
always 32x32). PBM ink convention (1 = black) is inverted at this boundary:
everywhere inside the toolkit, bit 1 means white (pixel value 255).
"""

import numpy as np

from .errors import MalformedHeader, TruncatedPayload, WrongDimensions

WATERMARK_SIDE = 32
WATERMARK_BITS = WATERMARK_SIDE * WATERMARK_SIDE


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
        arr = arr.astype(np.uint8, copy=True)
        arr.flags.writeable = False
        self._pixels = arr

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

    def complement(self) -> "WatermarkBitmap":
        return WatermarkBitmap(1 - self._bits)

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
            elif c in (0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C):
                i += 1
            else:
                break
        if i >= n:
            raise MalformedHeader("unexpected end of header")
        start = i
        while i < n and data[i] not in (0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C, 0x23):
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
        if self.data[self.pos] not in (0x20, 0x09, 0x0A, 0x0D, 0x0B, 0x0C):
            raise MalformedHeader("header not followed by whitespace")
        return self.pos + 1


def read_rgb_image(data: bytes) -> RgbImage:
    """Decode a binary PPM (P6, maxval 255) bit-exactly."""
    tok = _Tokenizer(data)
    magic = tok.next_token()
    if magic != b"P6":
        raise MalformedHeader(f"expected magic P6, got {magic!r}")
    width = tok.next_int()
    height = tok.next_int()
    maxval = tok.next_int()
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise MalformedHeader(f"only maxval 255 is supported, got {maxval}")
    payload = data[tok.start_of_payload():]
    expected = 3 * width * height
    if len(payload) < expected:
        raise TruncatedPayload(f"need {expected} payload bytes, found {len(payload)}")
    if len(payload) > expected:
        raise MalformedHeader(f"{len(payload) - expected} trailing bytes after payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RgbImage(pixels)


def write_rgb_image(img: RgbImage) -> bytes:
    """Encode to canonical P6: single-space header fields, no comments."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def read_watermark(data: bytes) -> WatermarkBitmap:
    """Decode a 32x32 PBM (P1 ascii or P4 binary), inverting ink to white=1."""
    tok = _Tokenizer(data)
    magic = tok.next_token()
    if magic not in (b"P1", b"P4"):
        raise MalformedHeader(f"expected magic P1 or P4, got {magic!r}")
    width = tok.next_int()
    height = tok.next_int()
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    if (width, height) != (WATERMARK_SIDE, WATERMARK_SIDE):
        raise WrongDimensions(f"watermark must be 32x32, got {width}x{height}")

    if magic == b"P1":
        ink = _read_p1_digits(tok)
    else:
        payload = data[tok.start_of_payload():]
        row_bytes = WATERMARK_SIDE // 8
        expected = row_bytes * WATERMARK_SIDE
        if len(payload) < expected:
            raise MalformedHeader(f"need {expected} payload bytes, found {len(payload)}")
        if len(payload) > expected:
            raise MalformedHeader(f"{len(payload) - expected} trailing bytes after payload")
        packed = np.frombuffer(payload, dtype=np.uint8)
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
    if len(digits) > WATERMARK_BITS or tok.data[tok.pos:].strip(b" \t\r\n\x0b\x0c"):
        raise MalformedHeader("trailing data after P1 pixels")
    ink = np.frombuffer(digits, dtype=np.uint8) - ord("0")
    return ink.reshape(WATERMARK_SIDE, WATERMARK_SIDE)


def write_watermark(w: WatermarkBitmap) -> bytes:
    """Encode to canonical P4 with the same white=1 inversion; read∘write is identity."""
    header = f"P4\n{WATERMARK_SIDE} {WATERMARK_SIDE}\n".encode("ascii")
    ink = (1 - w.bits).astype(np.uint8)
    return header + np.packbits(ink, axis=1).tobytes()
