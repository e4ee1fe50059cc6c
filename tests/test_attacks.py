import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.fft import dct, dctn, idctn

from lumamark import attacks
from lumamark.attacks import (
    LUMA_QUANT_TABLE,
    CropRect,
    center_keep_rect,
    compress_attack,
    crop_attack,
    grayscale_attack,
    quant_steps,
)
from lumamark.colorspace import YCC_TO_RGB, pixels_to_ycc, rgb_to_ycbcr, round_half_away
from lumamark.errors import RectOutOfBounds
from lumamark.metrics import psnr
from lumamark.pixmap import RgbImage

from support import (
    ROOT,
    attack_probe,
    dense_compress_attack,
    dense_compress_stages,
    gray_image,
    random_image,
    subprocess_env,
    traced_peak,
)

QUALITY_LADDER = (1.0, 0.9, 0.75, 0.5, 0.25)
PAYLOAD_512 = 512 * 512 * 3  # bytes of one 512x512 image's pixels


def _mse(a, b):
    return float(np.mean((a.pixels.astype(np.float64) - b.pixels.astype(np.float64)) ** 2))


class TestCropAttack:
    def test_full_rect_is_identity(self, corpus):
        img = corpus["smooth_blobs"]
        assert crop_attack(img, CropRect(0, 0, img.width, img.height)) == img

    def test_black_pixel_count_outside_kept_rect(self):
        img = gray_image(255, 64, 64)
        out = crop_attack(img, CropRect(16, 16, 32, 32))
        black = int(np.all(out.pixels == 0, axis=2).sum())
        assert black == 64 * 64 - 32 * 32
        assert np.all(out.pixels[16:48, 16:48] == 255)

    def test_idempotent(self, corpus):
        img = corpus["fine_texture"]
        rect = center_keep_rect(img.width, img.height)
        once = crop_attack(img, rect)
        assert crop_attack(once, rect) == once

    def test_preserves_dimensions(self, corpus):
        img = corpus["soft_gradient"]
        out = crop_attack(img, CropRect(8, 8, 100, 50))
        assert (out.width, out.height) == (img.width, img.height)

    @pytest.mark.parametrize(
        "rect",
        [CropRect(-1, 0, 8, 8), CropRect(0, 0, 65, 8), CropRect(60, 60, 8, 8), CropRect(0, 0, 0, 8)],
    )
    def test_out_of_bounds(self, rect):
        with pytest.raises(RectOutOfBounds):
            crop_attack(gray_image(1, 64, 64), rect)

    def test_center_keep_rect_geometry(self):
        assert center_keep_rect(512, 512) == CropRect(128, 128, 256, 256)


class TestGrayscaleAttack:
    def test_already_gray_is_fixed_point(self):
        img = gray_image(137, 40, 24)
        assert grayscale_attack(img) == img

    def test_pure_red_goes_to_76(self):
        img = grayscale_attack(RgbImage(np.array([[[255, 0, 0]]], dtype=np.uint8)))
        assert img.pixels.tolist() == [[[76, 76, 76]]]

    def test_idempotent(self, corpus):
        once = grayscale_attack(corpus["fine_texture"])
        assert grayscale_attack(once) == once

    def test_exact_half_ties_use_the_element_wise_weights(self):
        # The 16,782 triples whose Y = (299r + 587g + 114b) / 1000 is an exact
        # half. ``pixels @ RGB_TO_YCC[0]`` rounds 2529 of them the other way, and
        # ``pixels_to_ycc`` more, so switching to either fails here.
        g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        ties = []
        for r in range(256):
            tie = (299 * r + 587 * g + 114 * b) % 1000 == 500
            ties.append(np.stack(np.broadcast_arrays(r, g[tie], b[tie]), axis=-1))
        px = np.concatenate(ties).astype(np.uint8)[np.newaxis]
        assert px.shape == (1, 16782, 3)
        r, g, b = px[:, :, 0], px[:, :, 1], px[:, :, 2]
        expected = round_half_away(r * 0.299 + g * 0.587 + b * 0.114)
        out = grayscale_attack(RgbImage(px)).pixels
        assert np.array_equal(out, np.repeat(expected[..., np.newaxis], 3, axis=-1))

    def test_luminance_changes_by_rounding_only(self, corpus):
        for img in corpus.values():
            before = rgb_to_ycbcr(img).y
            after = rgb_to_ycbcr(grayscale_attack(img)).y
            assert float(np.abs(after - before).max()) <= 1.0


class TestCompressAttack:
    def test_quality_one_near_identity_on_corpus(self, corpus):
        # regression bound measured on the frozen corpus (lowest was ~58.6 dB)
        for img in corpus.values():
            assert psnr(img, compress_attack(img, 1.0)) > 45.0

    def test_uniform_image_changes_at_most_one_step(self):
        img = gray_image(128, 64, 64)
        for quality in QUALITY_LADDER:
            out = compress_attack(img, quality)
            diff = np.abs(out.pixels.astype(np.int16) - img.pixels.astype(np.int16))
            assert diff.max() <= 1, f"quality {quality}"

    def test_severity_monotone_in_quality(self, corpus):
        for name, img in corpus.items():
            errors = [_mse(img, compress_attack(img, q)) for q in QUALITY_LADDER]
            assert all(a <= b for a, b in zip(errors, errors[1:])), (name, errors)

    def test_preserves_dimensions_with_remainder(self):
        img = gray_image(60, 44, 28)  # 4-pixel remainders on both axes
        out = compress_attack(img, 0.5)
        assert (out.width, out.height) == (44, 28)

    def test_quality_bounds(self):
        with pytest.raises(ValueError):
            compress_attack(gray_image(1, 8, 8), 0.0)
        with pytest.raises(ValueError):
            compress_attack(gray_image(1, 8, 8), 1.5)

    def test_quant_steps_floor_at_one(self):
        steps = quant_steps(1.0)  # scale 0.02
        assert steps[0, 0] == 1.0  # 0.02 * 16 floored
        assert steps[7, 4] == pytest.approx(0.02 * 112)  # large entries keep the scale
        assert quant_steps(0.75)[0, 0] == pytest.approx(0.52 * 16)
        assert np.all(quant_steps(0.001) == pytest.approx(LUMA_QUANT_TABLE * ((1 - 0.001) * 2 + 0.02)))


class TestCompressDenseOracle:
    """The strip-wise fused attack against whole-image, per-plane DCT."""

    @settings(max_examples=150, deadline=None)
    @given(
        width=st.integers(1, 150),
        height=st.integers(1, 150),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "flat", "few_levels", "extremes", "gray"]),
        quality=st.sampled_from([1.0, 0.9, 0.75, 0.5, 0.25, 0.02]),
    )
    # Always run: without the tie guard (_EPS = 0) its bytes differ.
    @example(width=16, height=16, seed=0, kind="gray", quality=1.0)
    def test_same_bytes_as_dense(self, width, height, seed, kind, quality):
        # 1-150 px gives sizes under one block, remainder rows and columns,
        # and a partial last strip. "extremes" drives the clip at 0 and 255.
        # "gray" (R = G = B) has no chroma, so at fine steps many of its
        # rebuilt RGB values land exactly on half-integers.
        rng = np.random.default_rng(seed)
        shape = (height, width, 3)
        if kind == "random":
            pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
        elif kind == "flat":
            pixels = np.broadcast_to(rng.integers(0, 256, size=3, dtype=np.uint8), shape).copy()
        elif kind == "few_levels":
            levels = rng.integers(0, 256, size=3, dtype=np.uint8)
            pixels = levels[rng.integers(0, 3, size=shape)]
        elif kind == "extremes":
            pixels = np.array([0, 1, 254, 255], dtype=np.uint8)[rng.integers(0, 4, size=shape)]
        else:
            y = rng.integers(0, 256, size=(height, width, 1), dtype=np.uint8)
            pixels = np.repeat(y, 3, axis=2)
        img = RgbImage(pixels)
        assert compress_attack(img, quality) == dense_compress_attack(img, quality)

    def test_same_bytes_as_dense_on_corpus(self, corpus):
        for img in corpus.values():
            for quality in QUALITY_LADDER:
                assert compress_attack(img, quality) == dense_compress_attack(img, quality)


class TestCompressTieFallback:
    """Blocks near a rounding tie are recomputed by the exact path."""

    @staticmethod
    def exact_path_blocks(monkeypatch, pixels):
        """The blocks compress_attack(quality 1.0) sends to _exact_blocks,
        after checking its bytes against the dense oracle."""
        exact = attacks._exact_blocks
        seen = []

        def spy(blocks, steps):
            seen.extend(blocks.copy())
            return exact(blocks, steps)

        monkeypatch.setattr(attacks, "_exact_blocks", spy)
        img = RgbImage(pixels)
        assert compress_attack(img, 1.0) == dense_compress_attack(img, 1.0)
        return seen

    @pytest.mark.parametrize("low", [0, 100])
    def test_dc_tie_block_takes_the_exact_path(self, monkeypatch, low):
        # Four pixels of low + 1 in a gray block of low: the Y sum is
        # 64 low + 4, so the DC term is (64 low + 4) / 8 = 8 low + 0.5, and at
        # quality 1.0 its step is 1. Its gray neighbours are far from ties.
        pixels = np.full((16, 16, 3), low, dtype=np.uint8)
        pixels[0, :4] = low + 1
        tie = pixels[:8, :8].copy()
        dc = dctn(pixels_to_ycc(tie)[:, :, 0], type=2, norm="ortho")[0, 0]
        assert quant_steps(1.0)[0, 0] == 1.0
        assert dc == pytest.approx(8 * low + 0.5, abs=1e-12)
        assert np.array_equal(self.exact_path_blocks(monkeypatch, pixels), tie[np.newaxis])

    @pytest.mark.parametrize("low", [100, 200])
    def test_negative_tie_block_takes_the_exact_path(self, monkeypatch, low):
        # One pixel of low + 1 in block row 0 and five in row 1 of a gray block
        # of low. The (4, 0) basis is (+-1/8) per pixel, + on row 0 and - on
        # row 1, so that term is (1 - 5) / 8 = -0.5 (exactly, at these lows),
        # while the DC term is 8 low + 0.75. At quality 1.0 its step is 1,
        # and rounding half to even gives -0 where the bytes need -1.
        pixels = np.full((16, 16, 3), low, dtype=np.uint8)
        pixels[0, 0] = pixels[1, :5] = low + 1
        tie = pixels[:8, :8].copy()
        coeff = dctn(pixels_to_ycc(tie)[:, :, 0], type=2, norm="ortho")[4, 0]
        assert quant_steps(1.0)[4, 0] == 1.0
        assert coeff == -0.5
        assert np.rint(coeff) != round_half_away(np.array([coeff]))[0]
        assert np.array_equal(self.exact_path_blocks(monkeypatch, pixels), tie[np.newaxis])


class TestRoundFlaggingTies:
    """The fast path may round by any rule that agrees with round_half_away
    on every value it does not flag."""

    def test_flags_every_value_where_the_rounding_rules_disagree(self):
        eps = attacks._EPS
        halves = np.array([0.5, 1.5, 2.5, 2.0**20 + 0.5])
        halves = np.concatenate([halves, -halves])
        offsets = (0.0, -eps / 2, eps / 2, -4 * eps, 4 * eps)
        x = np.concatenate([halves + d for d in offsets] + [np.array([0.0, 0.3, -1.7, 3.0])])
        rounded, flagged = attacks._round_flagging_ties(x.copy())
        away = round_half_away(x)
        disagree = np.flatnonzero(rounded != away)
        assert disagree.size > 0  # the exact halves 0.5, 2.5 and 2**20 + 0.5
        assert np.isin(disagree, flagged).all()
        from_half = np.abs(x - np.floor(x) - 0.5)
        assert np.array_equal(flagged, np.flatnonzero(from_half <= eps))


class TestCompressErrorBound:
    """The matrix path stays within the derived bound of the exact path, and
    the bound within the guard's margin: a change to the matrices or the
    strip layout that eats the margin fails here, not as a rare byte flip."""

    @staticmethod
    def max_errors(img, quality, stages):
        """max |stages - exact| over the quotients, and over the pre-rounding
        RGB rebuilt from the same rounded coefficients, on the image's full
        blocks. ``stages(pixels, steps, coeffs)`` gives the quotients as
        (3, h/8, 8, w/8, 8) and the RGB as (h, w, 3)."""
        rows, cols = img.height // 8 * 8, img.width // 8 * 8
        pixels = img.pixels[:rows, :cols]
        exact_q, exact_rgb = dense_compress_stages(RgbImage(pixels), quality)
        steps = quant_steps(quality)[:, np.newaxis]
        q, rgb = stages(pixels, steps, round_half_away(exact_q) * steps)
        return float(np.abs(q - exact_q).max()), float(np.abs(rgb - exact_rgb).max())

    @staticmethod
    def matrix_stages(pixels, steps, coeffs):
        row_steps = np.tile(steps[:, 0], pixels.shape[1] // 8)
        q = attacks._fast_quotients(pixels, row_steps)
        return q.reshape(coeffs.shape), attacks._fast_rgb(coeffs.reshape(q.shape))

    @staticmethod
    def fft_stages(pixels, steps, coeffs):
        rows, cols = pixels.shape[:2]
        ycc = pixels_to_ycc(pixels).transpose(2, 0, 1).reshape(coeffs.shape)
        q = dctn(ycc, type=2, norm="ortho", axes=(2, 4)) / steps
        ycc = idctn(coeffs, type=2, norm="ortho", axes=(2, 4)).reshape(3, rows, cols)
        return q, np.moveaxis(ycc, 0, -1) @ YCC_TO_RGB.T

    @staticmethod
    def images(corpus):
        rng = np.random.default_rng(11)
        images = [*corpus.values(), random_image(rng, 200, 136)]
        extremes = np.array([0, 1, 254, 255], dtype=np.uint8)[rng.integers(0, 4, (96, 96, 3))]
        return [*images, RgbImage(extremes)]

    def test_bound_holds_with_margin(self, corpus):
        for img in self.images(corpus):
            for quality in (1.0, 0.5, 0.001):
                errors = self.max_errors(img, quality, self.matrix_stages)
                assert max(errors) < attacks._ERROR_BOUND, (img, quality, errors)
        assert attacks._ERROR_BOUND < attacks._EPS

    def test_scipy_fft_agrees_within_the_bound(self, corpus):
        # The fixed order computes scipy's orthonormal DCT-II, not some
        # other transform: its dctn/idctn give the same values to within the
        # bound, though a value at a tie may round the other way.
        for img in self.images(corpus):
            for quality in (1.0, 0.5, 0.001):
                errors = self.max_errors(img, quality, self.fft_stages)
                assert max(errors) < attacks._ERROR_BOUND, (img, quality, errors)

    def test_dct_literals_are_the_ffts_matrix_bit_for_bit(self):
        # _DCT's literals are scipy's orthonormal DCT-II matrix, to the bit.
        expected = dct(np.eye(8), norm="ortho", axis=0)
        assert attacks._DCT.dtype == expected.dtype and attacks._DCT.shape == expected.shape
        assert attacks._DCT.tobytes() == expected.tobytes()


class TestSameBytesOnAnotherBlasKernel:
    """The attack's bytes and psnr's reprs follow from IEEE arithmetic alone,
    so a process on OpenBLAS's pre-FMA Prescott kernel computes the same."""

    def test_prescott_kernel_gives_the_same_bytes_and_reprs(self):
        env = subprocess_env()
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "tests"), env["PYTHONPATH"]])
        env["OPENBLAS_CORETYPE"] = "Prescott"
        code = "import json, support; print(json.dumps(support.attack_probe()))"
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True)
        there, here = json.loads(child.stdout), attack_probe()
        if there["corename"] in (None, here["corename"]):
            pytest.skip(f"OPENBLAS_CORETYPE=Prescott picks no other OpenBLAS kernel here "
                        f"(in-process {here['corename']}, child {there['corename']})")
        assert {**there, "corename": None} == {**here, "corename": None}


class TestCopyBudgets:
    """An attack allocates its output once: no second copy of the result and
    no whole-image float buffer. Bounds in payloads of a 512x512 image."""

    @pytest.mark.parametrize(
        "attack, budget",
        [
            (lambda img: compress_attack(img, 0.75), 2.25),
            (lambda img: crop_attack(img, center_keep_rect(512, 512)), 1.1),
            (grayscale_attack, 1.75),
        ],
    )
    def test_peak(self, attack, budget):
        img = random_image(np.random.default_rng(4), 512, 512)
        out, peak = traced_peak(attack, img)
        assert peak <= budget * PAYLOAD_512
        assert not out.pixels.flags.writeable
