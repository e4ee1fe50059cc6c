import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumamark.errors import MalformedHeader, TruncatedPayload, WrongDimensions
from lumamark.pixmap import (
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
