import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lumamark import pixmap
from lumamark.errors import MalformedHeader, TruncatedPayload, WrongDimensions
from lumamark.pixmap import (
    RgbFile,
    RgbImage,
    WatermarkBitmap,
    read_rgb_image,
    read_watermark,
    write_rgb_image,
    write_watermark,
)

from support import random_bitmap, random_image, traced_peak


class TestReadRgbImage:
    def test_decodes_hand_built_file(self):
        img = read_rgb_image(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        assert (img.width, img.height) == (2, 1)
        assert img.pixels.tolist() == [[[255, 0, 0], [0, 255, 0]]]

    def test_truncated_payload(self):
        with pytest.raises(TruncatedPayload):
            read_rgb_image(b"P6\n2 2\n255\n" + bytes(9))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(MalformedHeader):
            read_rgb_image(b"P6\n1 1\n255\n" + bytes(4))

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            read_rgb_image(b"P5\n1 1\n255\n" + bytes(1))

    def test_bad_maxval(self):
        with pytest.raises(MalformedHeader):
            read_rgb_image(b"P6\n1 1\n254\n" + bytes(3))

    def test_zero_dimension(self):
        with pytest.raises(MalformedHeader):
            read_rgb_image(b"P6\n0 1\n255\n")

    def test_comments_accepted_on_read(self):
        data = b"P6 # a comment\n# another\n2 1\n# and one more\n255\n" + bytes(6)
        img = read_rgb_image(data)
        assert (img.width, img.height) == (2, 1)

    def test_single_separator_byte_then_payload(self):
        # Payload may legitimately begin with whitespace-looking bytes.
        img = read_rgb_image(b"P6\n1 1\n255\n" + bytes([0x0A, 0x20, 0x23]))
        assert img.pixels.tolist() == [[[0x0A, 0x20, 0x23]]]

    def test_bytes_payload_is_adopted_read_only(self):
        data = b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6])
        img = read_rgb_image(data)
        assert np.shares_memory(img.pixels, np.frombuffer(data, np.uint8))
        with pytest.raises(ValueError):
            img.pixels.flags.writeable = True
        assert img.pixels.tolist() == [[[1, 2, 3], [4, 5, 6]]]

    def test_mutable_buffer_is_not_shared(self):
        data = bytearray(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        img = read_rgb_image(data)
        data[-6:] = bytes(6)
        assert img.pixels.tolist() == [[[1, 2, 3], [4, 5, 6]]]

    @pytest.mark.parametrize("buffer", [bytes, bytearray], ids=["bytes", "bytearray"])
    def test_memoryview_decodes_like_bytes(self, buffer):
        data = b"P6 # c\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6])
        assert read_rgb_image(memoryview(buffer(data))) == read_rgb_image(data)

    def test_mutable_memoryview_is_not_shared(self):
        data = bytearray(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        img = read_rgb_image(memoryview(data))
        data[-6:] = bytes(6)
        assert img.pixels.tolist() == [[[1, 2, 3], [4, 5, 6]]]


class TestWriteRgbImage:
    def test_canonical_1x1(self):
        img = RgbImage(np.zeros((1, 1, 3), dtype=np.uint8))
        assert write_rgb_image(img) == b"P6\n1 1\n255\n\x00\x00\x00"

    def test_payload_length_512(self):
        img = RgbImage(np.zeros((512, 512, 3), dtype=np.uint8))
        data = write_rgb_image(img)
        assert len(data) - len(b"P6\n512 512\n255\n") == 786432

    def test_fortran_ordered_pixels_round_trip(self):
        pixels = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3)
        data = write_rgb_image(RgbImage(np.asfortranarray(pixels)))
        assert data == b"P6\n5 4\n255\n" + pixels.tobytes()

    def test_comments_never_emitted(self):
        img = read_rgb_image(b"P6 #c\n1 1\n255\n" + bytes(3))
        assert b"#" not in write_rgb_image(img)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**31 - 1))
    def test_roundtrip_identity(self, width, height, seed):
        img = random_image(np.random.default_rng(seed), width, height)
        assert read_rgb_image(write_rgb_image(img)) == img

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**31 - 1))
    def test_canonical_bytes_roundtrip(self, width, height, seed):
        data = write_rgb_image(random_image(np.random.default_rng(seed), width, height))
        assert write_rgb_image(read_rgb_image(data)) == data


class TestReadWatermark:
    def test_p1_all_zero_digits_mean_white(self):
        digits = ("0" * 32 + "\n") * 32
        w = read_watermark(f"P1\n32 32\n{digits}".encode())
        assert w.bits.min() == 1

    def test_p1_packed_digits_without_spaces(self):
        body = "01" * 512
        w = read_watermark(f"P1\n32 32\n{body}\n".encode())
        assert w.bits.reshape(-1).tolist()[:4] == [1, 0, 1, 0]

    def test_p4_all_ff_means_black(self):
        w = read_watermark(b"P4\n32 32\n" + b"\xff" * 128)
        assert w.bits.max() == 0

    def test_wrong_dimensions(self):
        digits = "0" * 256
        with pytest.raises(WrongDimensions):
            read_watermark(f"P1\n16 16\n{digits}".encode())

    def test_p1_invalid_digit(self):
        with pytest.raises(MalformedHeader):
            read_watermark(b"P1\n32 32\n" + b"2" * 1024)

    def test_p1_too_few_digits(self):
        with pytest.raises(MalformedHeader):
            read_watermark(b"P1\n32 32\n" + b"0" * 1023)

    def test_p1_too_many_digits(self):
        with pytest.raises(MalformedHeader):
            read_watermark(b"P1\n32 32\n" + b"0" * 1025)

    def test_p4_short_payload(self):
        with pytest.raises(TruncatedPayload):
            read_watermark(b"P4\n32 32\n" + b"\x00" * 127)

    def test_p4_trailing_bytes(self):
        with pytest.raises(MalformedHeader):
            read_watermark(b"P4\n32 32\n" + b"\x00" * 129)

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            read_watermark(b"P2\n32 32\n" + b"0" * 1024)

    def test_p4_mutable_buffer_is_not_shared(self):
        data = bytearray(b"P4\n32 32\n" + b"\xff" * 128)
        w = read_watermark(data)
        data[-128:] = bytes(128)
        assert w.bits.max() == 0

    def test_p4_mutable_memoryview_is_not_shared(self):
        data = bytearray(b"P4\n32 32\n" + b"\xff" * 128)
        w = read_watermark(memoryview(data))
        data[-128:] = bytes(128)
        assert w.bits.max() == 0

    @pytest.mark.parametrize("buffer", [bytes, bytearray], ids=["bytes", "bytearray"])
    @pytest.mark.parametrize("data", [
        b"P1\n32 32\n" + b"01" * 512,
        b"P4\n32 32\n" + bytes(range(128)),
    ], ids=["p1", "p4"])
    def test_memoryview_decodes_like_bytes(self, data, buffer):
        assert read_watermark(memoryview(buffer(data))) == read_watermark(data)

    def test_p1_comment_after_last_digit(self):
        w = read_watermark(b"P1\n32 32\n" + b"0" * 1024 + b"\n# c\n")
        assert w.bits.min() == 1


_ZEROS = b"0" * 1024
_LONG_COMMENT = b"#" + b"c" * RgbFile._PREFIX + b"\n"  # longer than RgbFile's first read

# Malformed input -> the exact error class and message the readers raise.
MALFORMED = [
    pytest.param(read_rgb_image, b"P5\n1 1\n255\n" + bytes(3), MalformedHeader,
                 "expected magic P6, got b'P5'", id="p6-bad-magic"),
    pytest.param(read_rgb_image, b"P5\n", MalformedHeader,
                 "expected magic P6, got b'P5'", id="p6-bad-magic-then-end"),
    pytest.param(read_watermark, b"P2\n32 32\n" + _ZEROS, MalformedHeader,
                 "expected magic P1 or P4, got b'P2'", id="pbm-bad-magic"),
    pytest.param(read_rgb_image, b"P6", MalformedHeader,
                 "unexpected end of header", id="p6-end-at-magic"),
    pytest.param(read_rgb_image, b"P6\n", MalformedHeader,
                 "unexpected end of header", id="p6-end-after-magic"),
    pytest.param(read_watermark, b"P4 # c\n", MalformedHeader,
                 "unexpected end of header", id="p4-end-after-comment"),
    pytest.param(read_rgb_image, b"P6\n0 1\n", MalformedHeader,
                 "bad dimensions 0x1", id="p6-zero-width-no-maxval"),
    pytest.param(read_rgb_image, b"P6\n0 1\n255\n", MalformedHeader,
                 "bad dimensions 0x1", id="p6-zero-width"),
    pytest.param(read_rgb_image, b"P6\nx 1\n255\n" + bytes(3), MalformedHeader,
                 "expected integer, got b'x'", id="p6-non-digit-width"),
    pytest.param(read_rgb_image, b"P6\n1 1\n2a5\n" + bytes(3), MalformedHeader,
                 "expected integer, got b'2a5'", id="p6-non-digit-maxval"),
    pytest.param(read_rgb_image, b"P6\n1 1\n254\n" + bytes(3), MalformedHeader,
                 "only maxval 255 is supported, got 254", id="p6-maxval-254"),
    pytest.param(read_rgb_image, b"P6\n1 1\n255", MalformedHeader,
                 "missing payload separator", id="p6-no-separator"),
    pytest.param(read_rgb_image, b"P6\n1 1\n255#c\n" + bytes(3), MalformedHeader,
                 "header not followed by whitespace", id="p6-comment-after-maxval"),
    pytest.param(read_rgb_image, b"P6\n1 1\n255\n" + bytes(2), TruncatedPayload,
                 "need 3 payload bytes, found 2", id="p6-one-byte-short"),
    pytest.param(read_rgb_image, b"P6\n1 1\n255\n" + bytes(4), MalformedHeader,
                 "1 trailing bytes after payload", id="p6-one-byte-long"),
    pytest.param(read_rgb_image, b"P6" + _LONG_COMMENT + b"1 1\n255\n" + bytes(2),
                 TruncatedPayload, "need 3 payload bytes, found 2", id="p6-long-comment-short"),
    pytest.param(read_rgb_image, b"P6\n1 1" + _LONG_COMMENT + b"255\n" + bytes(4),
                 MalformedHeader, "1 trailing bytes after payload", id="p6-long-comment-long"),
    pytest.param(read_rgb_image, b"P6\n1 1\n" + _LONG_COMMENT[:-1], MalformedHeader,
                 "unexpected end of header", id="p6-long-comment-then-end"),
    pytest.param(read_watermark, b"P4\n32 32\n" + bytes(127), TruncatedPayload,
                 "need 128 payload bytes, found 127", id="p4-one-byte-short"),
    pytest.param(read_watermark, b"P4\n32 32\n" + bytes(129), MalformedHeader,
                 "1 trailing bytes after payload", id="p4-one-byte-long"),
    pytest.param(read_watermark, b"P4\n16 16\n" + bytes(32), WrongDimensions,
                 "watermark must be 32x32, got 16x16", id="p4-16x16"),
    pytest.param(read_watermark, b"P1\n32 32\n" + b"0" * 511 + b"2" + b"0" * 512,
                 MalformedHeader, "invalid P1 pixel byte b'2'", id="p1-invalid-digit"),
    pytest.param(read_watermark, b"P1\n32 32\n" + b"0" * 1023, MalformedHeader,
                 "need 1024 P1 pixels, found 1023", id="p1-1023-digits"),
    pytest.param(read_watermark, b"P1\n32 32\n" + b"0" * 1025, MalformedHeader,
                 "trailing data after P1 pixels", id="p1-1025-digits"),
    pytest.param(read_watermark, b"P1\n32 32\n" + _ZEROS + b"\n# c\n1", MalformedHeader,
                 "trailing data after P1 pixels", id="p1-digit-after-trailing-comment"),
]


def _read_rgb_file(path, prefix=RgbFile._PREFIX) -> RgbImage:
    """Every row of the P6 file at ``path``, through an RgbFile whose first
    header read is ``prefix`` bytes long."""
    with open(path, "rb") as fh:
        f = type("RgbFileUnderTest", (RgbFile,), {"_PREFIX": prefix})(fh)
        return RgbImage(f.rows(0, f.height))


def _outcome(read, *args):
    """The image read, or the class and message of the format error raised."""
    try:
        return read(*args)
    except (MalformedHeader, TruncatedPayload) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("read, data, error, message", MALFORMED)
def test_malformed_input_error(read, data, error, message, tmp_path):
    readers = [read]
    if read is read_rgb_image:  # the P6 cases also go through RgbFile, from a file
        path = tmp_path / "input.ppm"
        path.write_bytes(data)
        readers.append(lambda _: _read_rgb_file(path))
    for read_one in readers:
        with pytest.raises(error) as info:
            read_one(data)
        assert (info.type, str(info.value)) == (error, message)


_SEPARATOR = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\v", b"\f"])
_COMMENT = st.builds(
    lambda text, end: b"#" + text + end,
    st.binary(max_size=6).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
    st.sampled_from([b"\n", b"\r"]),
)
_GAP = st.lists(st.one_of(_SEPARATOR, _COMMENT), min_size=1, max_size=3).map(b"".join)


def _mutable_view(data: bytes) -> memoryview:
    return memoryview(bytearray(data))


_BUFFERS = st.sampled_from([bytes, bytearray, memoryview, _mutable_view])


@st.composite
def _noisy_files(draw):
    """(reader, canonical file, the same file with random separators and
    comments between its header fields and its P1 digits, header length)."""
    kind = draw(st.sampled_from([b"P6", b"P4", b"P1"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if kind == b"P6":
        img = random_image(rng, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        read, canonical = read_rgb_image, write_rgb_image(img)
        fields = [b"%d" % img.width, b"%d" % img.height, b"255"]
        raster = draw(_SEPARATOR) + img.pixels.tobytes()
    else:
        w = random_bitmap(rng)
        read, canonical = read_watermark, write_watermark(w)
        fields = [b"32", b"32"]
        if kind == b"P4":
            raster = draw(_SEPARATOR) + canonical[-128:]
        else:
            digits = (ord("1") - w.bits.reshape(-1)).astype(np.uint8).tobytes()
            cuts = sorted(draw(st.lists(st.integers(0, 1024), max_size=6)))
            pieces = [digits[a:b] for a, b in zip([0] + cuts, cuts + [1024])]
            gaps = [draw(st.just(b"") | _GAP) for _ in cuts]
            raster = draw(_GAP) + b"".join(p + g for p, g in zip(pieces, gaps + [b""]))
            raster += draw(st.sampled_from([b"", b"# comment at the end"]))
    header = kind + b"".join(draw(_GAP) + f for f in fields)
    return read, canonical, header + raster, len(header)


class TestNoisyInput:
    @settings(max_examples=80, deadline=None)
    @given(_noisy_files(), _BUFFERS)
    def test_decodes_like_canonical(self, file, buffer):
        read, canonical, noisy, _ = file
        assert read(buffer(noisy)) == read(canonical)

    @settings(max_examples=80, deadline=None)
    @given(_noisy_files(), _BUFFERS, st.data())
    def test_damage_raises_only_format_errors(self, file, buffer, data):
        read, _, noisy, header_len = file
        if data.draw(st.booleans(), label="truncate"):
            damaged = noisy[: data.draw(st.integers(0, len(noisy) - 1), label="length")]
        else:
            flipped = bytearray(noisy)
            flipped[data.draw(st.integers(0, header_len - 1), label="at")] ^= data.draw(
                st.integers(1, 255), label="mask"
            )
            damaged = bytes(flipped)
        try:
            read(buffer(damaged))
        except (MalformedHeader, TruncatedPayload, WrongDimensions):
            pass

    @settings(max_examples=120, deadline=None)
    @given(_noisy_files(), st.data())
    def test_rgb_file_reads_like_read_rgb_image(self, tmp_path_factory, file, data):
        # Damaged or not, whatever the length of the first read.
        read, _, noisy, header_len = file
        assume(read is read_rgb_image)
        if data.draw(st.booleans(), label="damage"):
            at = data.draw(st.integers(0, header_len - 1), label="at")
            noisy = noisy[:at] + bytes([noisy[at] ^ data.draw(st.integers(1, 255))]) + noisy[at + 1:]
        noisy = noisy[: data.draw(st.integers(0, len(noisy) + 1), label="length")]
        # A first read that ends inside the header, or right at its end.
        ends = st.sampled_from([header_len, header_len + 1, RgbFile._PREFIX])
        prefix = data.draw(ends | st.integers(1, header_len), label="prefix")
        path = tmp_path_factory.mktemp("rgb_file") / "in.ppm"
        path.write_bytes(noisy)
        assert _outcome(_read_rgb_file, path, prefix) == _outcome(read_rgb_image, noisy)


class TestRgbFile:
    def test_rows_are_the_span_asked_for_and_read_only(self, tmp_path):
        img = random_image(np.random.default_rng(5), 7, 9)
        path = tmp_path / "in.ppm"
        path.write_bytes(b"P6 " + _LONG_COMMENT + b"7 9 255\n" + img.pixels.tobytes())
        with open(path, "rb") as fh:
            f = RgbFile(fh)
            assert (f.width, f.height) == (7, 9)
            for top, stop in [(0, 9), (2, 5), (8, 9), (4, 4)]:
                rows = f.rows(top, stop)
                assert np.array_equal(rows, img.pixels[top:stop])
                assert not rows.flags.writeable

    @pytest.mark.parametrize("tail", [b"\n" + bytes(3), b"5\n" + bytes(3), b" 5"],
                             ids=["whole", "maxval-runs-on", "short"])
    def test_a_first_read_ending_at_the_maxval_reads_on(self, tmp_path, tail):
        data = b"P6\n1 1\n255" + tail
        path = tmp_path / "in.ppm"
        path.write_bytes(data)
        assert _outcome(_read_rgb_file, path, 10) == _outcome(read_rgb_image, data)

    def test_short_read_is_a_truncated_payload(self, tmp_path, monkeypatch):
        # A file that shrinks after its length was checked.
        path = tmp_path / "in.ppm"
        path.write_bytes(write_rgb_image(random_image(np.random.default_rng(6), 4, 3)))
        real_pread = pixmap.os.pread

        def short_pread(fd, n, offset):
            return real_pread(fd, n, offset)[: -1 if offset else None]

        monkeypatch.setattr(pixmap.os, "pread", short_pread)
        with open(path, "rb") as fh:
            f = RgbFile(fh)
            assert f.rows(0, 0).shape == (0, 4, 3)
            with pytest.raises(TruncatedPayload, match="^need 36 payload bytes, found 11$"):
                f.rows(0, 1)
            with pytest.raises(TruncatedPayload, match="^need 36 payload bytes, found 35$"):
                f.rows(1, 3)


class TestCopyBudgets:
    """Reading or writing a P6 file allocates its payload at most once."""

    def test_read_allocates_one_payload(self):
        # bytes are adopted in place; a mutable buffer is copied once.
        data = write_rgb_image(random_image(np.random.default_rng(3), 1024, 1024))
        _, peak = traced_peak(read_rgb_image, data)
        assert peak <= 0.01 * 1024 * 1024 * 3
        _, peak = traced_peak(read_rgb_image, bytearray(data))
        assert peak <= 1.5 * 1024 * 1024 * 3

    def test_write_allocates_one_payload(self):
        img = random_image(np.random.default_rng(3), 1024, 1024)
        _, peak = traced_peak(write_rgb_image, img)
        assert peak <= 1.5 * 1024 * 1024 * 3


class TestWriteWatermark:
    def test_all_white_payload(self):
        w = WatermarkBitmap(np.ones((32, 32), dtype=np.uint8))
        assert write_watermark(w) == b"P4\n32 32\n" + b"\x00" * 128

    def test_all_black_payload(self):
        w = WatermarkBitmap(np.zeros((32, 32), dtype=np.uint8))
        assert write_watermark(w) == b"P4\n32 32\n" + b"\xff" * 128

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_roundtrip_identity(self, seed):
        w = random_bitmap(np.random.default_rng(seed))
        assert read_watermark(write_watermark(w)) == w


class TestContainers:
    def test_rgb_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            RgbImage(np.zeros((4, 4), dtype=np.uint8))

    def test_rgb_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RgbImage(np.full((1, 1, 3), 300, dtype=np.int32))

    def test_rgb_rejects_float_pixels(self):
        with pytest.raises(ValueError):
            RgbImage(np.full((1, 1, 3), 10.5))

    def test_rgb_pixels_read_only(self):
        img = RgbImage(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 1

    def test_bitmap_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            WatermarkBitmap(np.zeros((16, 16), dtype=np.uint8))

    def test_bitmap_rejects_non_binary(self):
        with pytest.raises(ValueError):
            WatermarkBitmap(np.full((32, 32), 2, dtype=np.uint8))

    def test_bitmap_complement(self):
        w = WatermarkBitmap(np.eye(32, dtype=np.uint8))
        assert np.array_equal(WatermarkBitmap(1 - w.bits).bits, 1 - w.bits)
