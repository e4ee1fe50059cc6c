import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumamark.attacks import compress_attack
from lumamark.codec import DEFAULT_ALPHA, embed, embedded_pixel_coords, extract
from lumamark.colorspace import rgb_to_ycbcr
from lumamark.errors import DimensionMismatch, InsufficientCandidates
from lumamark.metrics import similarity
from lumamark.pixmap import RgbImage, WatermarkBitmap
from lumamark.selection import select_blocks

from support import (
    checkerboard_bitmap,
    delta_sensitive_image,
    dense_embed,
    dense_extract,
    gray_image,
    random_bitmap,
    random_image,
    traced_peak,
)


def all_white():
    return WatermarkBitmap(np.ones((32, 32), dtype=np.uint8))


class TestEmbedParams:
    def test_defaults(self, logo):
        # alpha 3, and without a plan both directions select at delta 0.0001
        img = delta_sensitive_image()
        default_plan = select_blocks(img, 0.0001)
        other_plan = select_blocks(img, 1000.0)
        assert default_plan.blocks != other_plan.blocks
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            marked = embed(img, logo)
            assert marked == embed(img, logo, 3, plan=default_plan)
            assert marked != embed(img, logo, 3, plan=other_plan)
        assert extract(img, marked) == extract(img, marked, plan=default_plan)
        assert extract(img, marked) != extract(img, marked, plan=other_plan)

    def test_alpha_zero_rejected(self, logo):
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            embed(gray_image(128, 64, 64), logo, alpha=0)

    def test_alpha_one_warns_but_works(self, logo):
        img = gray_image(128, 64, 64)
        with pytest.warns(UserWarning, match="alpha=1") as record:
            marked = embed(img, logo, alpha=1)
        assert extract(img, marked) == logo
        # the warning names the caller's line, not a line inside the codec
        assert record[0].filename == __file__

    @pytest.mark.parametrize("numpy_int", [np.uint8, np.uint16, np.int8])
    def test_numpy_integer_alpha_embeds_like_int(self, corpus, logo, numpy_int):
        # -alpha wraps for an unsigned alpha: np.uint8(3) would step by -253
        img = corpus["smooth_blobs"]
        assert embed(img, logo, numpy_int(3)) == embed(img, logo, 3)


class TestBitPixelMapping:
    def test_coords_follow_plan_then_block_row_major(self):
        plan = select_blocks(rgb_to_ycbcr(gray_image(128)))
        ys, xs = embedded_pixel_coords(plan)
        assert len(ys) == len(xs) == 1024
        # bit 0 -> first plan block, top-left pixel
        b0 = plan.blocks[0]
        assert (ys[0], xs[0]) == (b0.row * 8, b0.col * 8)
        # bit 63 -> first block, bottom-right pixel
        assert (ys[63], xs[63]) == (b0.row * 8 + 7, b0.col * 8 + 7)
        # bit 64 -> second plan block, top-left pixel
        b1 = plan.blocks[1]
        assert (ys[64], xs[64]) == (b1.row * 8, b1.col * 8)
        # injective mapping
        assert len(set(zip(ys.tolist(), xs.tolist()))) == 1024

    def test_checkerboard_adjacent_pixels_differ_by_two_alpha(self):
        # A 32-wide checkerboard alternates bit parity with every step along
        # a block row; under the row-major mapping, horizontally adjacent
        # carrier pixels therefore differ by exactly 2*alpha.
        img = gray_image(128)
        plan = select_blocks(rgb_to_ycbcr(img))
        marked = embed(img, checkerboard_bitmap(), plan=plan).pixels.astype(np.int16)
        for b in plan.blocks[:4]:
            block = marked[b.row * 8 : b.row * 8 + 8, b.col * 8 : b.col * 8 + 8]
            assert set(np.unique(block).tolist()) == {125, 131}
            assert np.all(np.abs(np.diff(block, axis=1)) == 6)
            # vertically, four consecutive block rows come from the same
            # watermark row parity: the sign flips only across that seam
            vdiff = np.abs(np.diff(block, axis=0))
            assert np.all(vdiff[3] == 6)
            assert np.all(np.delete(vdiff, 3, axis=0) == 0)


class TestEmbed:
    def test_all_white_on_uniform_gray(self):
        img = gray_image(128)
        plan = select_blocks(rgb_to_ycbcr(img))
        ys, xs = embedded_pixel_coords(plan)
        marked = embed(img, all_white())
        # untouched pixels are byte-identical after the round trip
        mask = np.zeros((512, 512), dtype=bool)
        mask[ys, xs] = True
        assert np.array_equal(marked.pixels[~mask], img.pixels[~mask])
        # carrier pixels rose by alpha in every channel (gray stays gray)
        assert np.all(marked.pixels[mask] == 131)

    def test_locality_at_most_1024_pixels_inside_plan_blocks(self, corpus, logo):
        for img in corpus.values():
            plan = select_blocks(rgb_to_ycbcr(img))
            marked = embed(img, logo)
            changed = np.nonzero(np.any(marked.pixels != img.pixels, axis=2))
            assert len(changed[0]) <= 1024
            ys, xs = embedded_pixel_coords(plan)
            carrier = set(zip(ys.tolist(), xs.tolist()))
            assert set(zip(changed[0].tolist(), changed[1].tolist())) <= carrier

    def test_deterministic_output(self, corpus, logo):
        img = corpus["smooth_blobs"]
        assert embed(img, logo) == embed(img, logo)

    def test_with_a_plan_allocates_one_image(self, corpus, logo):
        # The marked pixels are copied once and adopted, not copied again.
        img = corpus["smooth_blobs"]
        plan = select_blocks(img)
        marked, peak = traced_peak(embed, img, logo, DEFAULT_ALPHA, plan)
        assert marked == embed(img, logo)
        assert peak <= 1.25 * img.pixels.nbytes
        assert not marked.pixels.flags.writeable

    def test_without_a_plan_allocates_one_image(self, corpus, logo):
        # Selection streams its strips, so the marked copy dominates the peak.
        img = corpus["fine_texture"]
        _, peak = traced_peak(embed, img, logo)
        assert peak <= 1.5 * img.pixels.nbytes

    def test_clamped_carriers_warn_with_the_count_that_decodes_wrong(self, logo):
        # Black bits cannot push Y below 0: on an all-black image every black
        # carrier clamps back to a zero difference, which decodes white.
        img = gray_image(0, 64, 64)
        with pytest.warns(RuntimeWarning, match=r"^697 of 1024 carriers") as record:
            marked = embed(img, logo)
        assert len(record) == 1
        assert marked == dense_embed(img, logo)
        assert similarity(logo, extract(img, marked)) == (1024 - 697) / 1024

    def test_corpus_embeds_without_warning(self, corpus, logo):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for img in corpus.values():
                embed(img, logo)

    def test_insufficient_candidates_propagates(self, logo):
        with pytest.raises(InsufficientCandidates):
            embed(gray_image(100, 16, 16), logo)


class TestExtract:
    def test_roundtrip_on_corpus(self, corpus, logo):
        for img in corpus.values():
            assert extract(img, embed(img, logo)) == logo

    def test_roundtrip_random_watermarks(self, corpus):
        img = corpus["fine_texture"]
        plan = select_blocks(rgb_to_ycbcr(img))
        for seed in range(5):
            wm = random_bitmap(np.random.default_rng(seed))
            assert extract(img, embed(img, wm, plan=plan), plan=plan) == wm

    def test_extract_image_against_itself_is_all_white(self, corpus):
        img = corpus["soft_gradient"]
        assert extract(img, img) == all_white()

    def test_zero_difference_decodes_white_at_saturation(self):
        # A white bit embedded at a near-saturated pixel clamps during
        # reconstruction; the >= 0 rule still decodes it as white.
        img = gray_image(254)
        wm = checkerboard_bitmap()
        assert extract(img, embed(img, wm)) == wm

    def test_mapping_swap_would_be_detected(self, corpus, logo):
        img = corpus["smooth_blobs"]
        extracted = extract(img, embed(img, logo))
        assert extracted == logo
        # the fixture is asymmetric, so any transposed/mirrored bit order
        # cannot masquerade as a correct round trip
        assert not np.array_equal(extracted.bits.T, logo.bits)
        assert not np.array_equal(np.fliplr(extracted.bits), logo.bits)
        assert not np.array_equal(np.flipud(extracted.bits), logo.bits)

    def test_dimension_mismatch(self, logo):
        a = gray_image(128, 512, 512)
        b = gray_image(128, 256, 512)
        with pytest.raises(DimensionMismatch):
            extract(a, b)

    def test_explicit_plan_matches_recomputed(self, corpus, logo):
        img = corpus["fine_texture"]
        plan = select_blocks(rgb_to_ycbcr(img))
        marked = embed(img, logo)
        assert extract(img, marked, plan=plan) == extract(img, marked)

    def test_plan_from_other_geometry_rejected(self, corpus, logo):
        plan = select_blocks(rgb_to_ycbcr(gray_image(128, 256, 256)))
        img = corpus["fine_texture"]
        with pytest.raises(DimensionMismatch):
            embed(img, logo, plan=plan)
        with pytest.raises(DimensionMismatch):
            extract(img, img, plan=plan)

    def test_alpha_five_also_roundtrips(self, corpus, logo):
        img = corpus["smooth_blobs"]
        assert extract(img, embed(img, logo, alpha=5)) == logo


class TestDenseOracle:
    """The carrier-only codec against whole-image conversion and rebuild."""

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(64, 140),
        height=st.integers(64, 140),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.integers(2, 8),
    )
    def test_same_bytes_and_bits_as_dense(self, width, height, seed, alpha):
        rng = np.random.default_rng(seed)
        img = random_image(rng, width, height)
        wm = random_bitmap(rng)
        plan = select_blocks(rgb_to_ycbcr(img))
        marked = embed(img, wm, alpha)
        assert marked == dense_embed(img, wm, alpha)
        assert embed(img, wm, alpha, plan=plan) == marked
        for test in (marked, compress_attack(marked, 0.75), random_image(rng, width, height)):
            expected = dense_extract(img, test)
            assert extract(img, test) == expected
            assert extract(img, test, plan=plan) == dense_extract(img, test, plan)

    def test_non_default_delta_plan_same_bytes_as_dense(self, logo):
        img = delta_sensitive_image()
        plan = select_blocks(img, 1000.0)
        assert plan.blocks[0] == (8, 8)
        with warnings.catch_warnings():
            # black bits on the checkerboard's black pixels clamp
            warnings.simplefilter("ignore", RuntimeWarning)
            marked = embed(img, logo, plan=plan)
        assert marked == dense_embed(img, logo, plan=plan)
        assert marked != dense_embed(img, logo)
        assert extract(img, marked, plan=plan) == dense_extract(img, marked, plan)


class TestExactReversibility:
    """When extract(original, embed(original, wm)) returns wm exactly."""

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(32, 120),
        height=st.integers(32, 120),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.integers(2, 8),
        extreme=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    def test_exact_iff_every_carrier_keeps_its_sign(self, width, height, seed, alpha, extreme):
        # A share of the pixels sits within 3 of black or white, where
        # rounding and clamping can eat a carrier's luminance change.
        rng = np.random.default_rng(seed)
        pixels = random_image(rng, width, height).pixels.copy()
        near_edge = rng.random(pixels.shape[:2]) < extreme
        low = rng.random(pixels.shape[:2]) < 0.5
        offsets = rng.integers(0, 4, size=pixels.shape, dtype=np.uint8)
        pixels[near_edge & low] = offsets[near_edge & low]
        pixels[near_edge & ~low] = 255 - offsets[near_edge & ~low]
        img = RgbImage(pixels)
        wm = random_bitmap(rng)
        try:
            plan = select_blocks(img)
        except InsufficientCandidates:
            return
        # The condition, read off the whole-image oracle: each carrier's
        # realised luminance change has the sign its bit asks for.
        ys, xs = embedded_pixel_coords(plan)
        dense = dense_embed(img, wm, alpha, plan)
        realised = rgb_to_ycbcr(dense).y - rgb_to_ycbcr(img).y
        white = wm.bits.reshape(-1) == 1
        unable = int(np.count_nonzero((realised[ys, xs] >= 0) != white))

        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            marked = embed(img, wm, alpha)
        assert marked == dense
        extracted = extract(img, marked)
        wrong_bits = int(np.count_nonzero(extracted.bits != wm.bits))
        assert wrong_bits == unable
        assert (extracted == wm) == (unable == 0)
        counts = [
            int(re.match(r"(\d+) of 1024 carriers", str(w.message)).group(1))
            for w in record
            if issubclass(w.category, RuntimeWarning)
        ]
        assert counts == ([wrong_bits] if wrong_bits else [])
