import contextlib
import dataclasses
import gc
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumamark import selection
from lumamark.colorspace import RGB_TO_YCC, rgb_to_ycbcr
from lumamark.errors import ImageTooSmall, InsufficientCandidates
from lumamark.pixmap import RgbFile, RgbImage, write_rgb_image
from lumamark.selection import (
    DELTA,
    TIE_TOLERANCE,
    BlockRef,
    SelectionPlan,
    _block_log_means,
    _image_log_mean,
    _window_log_means,
    candidate_blocks,
    log_average_luminance,
    parse_plan,
    partition_grid,
    select_blocks,
    serialize_plan,
    spiral_order,
)
from lumamark.testimages import corpus_image

from support import (
    IMPOSSIBLE_PLAN_VALUES,
    PLAN_VALUE_ERRORS,
    candidate_oracle,
    dense_log_stats,
    edit_plan_field,
    log_avg_oracle,
    random_image,
    spiral_oracle,
    traced_peak,
    ycc_from_y,
)


def _test_pixels(kind: str, seed: int, width: int, height: int) -> np.ndarray:
    """Random noise, one gray level, or a palette of a few colours laid out
    at random or periodically (periodic layouts tie blocks with the image)."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    if kind == "gray":
        return np.full((height, width, 3), rng.integers(0, 256), dtype=np.uint8)
    palette = rng.integers(0, 256, size=(int(rng.integers(2, 5)), 3), dtype=np.uint8)
    if kind == "levels":
        index = rng.integers(0, len(palette), size=(height, width))
    else:
        yy, xx = np.mgrid[0:height, 0:width]
        index = (xx + yy) % len(palette)
    return palette[index]


class TestLogAverageLuminance:
    def test_constant_input_gives_delta_plus_c(self):
        for c in (0.0, 1.0, 128.0, 255.0):
            got = log_average_luminance(np.full(50, c))
            assert got == pytest.approx(DELTA + c, rel=1e-12)

    def test_all_black_gives_delta(self):
        assert log_average_luminance(np.zeros(64)) == pytest.approx(0.0001, rel=1e-12)

    def test_two_point_sample_against_direct_arithmetic(self):
        expected = math.exp((math.log(0.0001) + math.log(255.0001)) / 2)
        got = log_average_luminance(np.array([0.0, 255.0]))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.1597, abs=2e-4)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 255), min_size=1, max_size=40), st.integers(0, 2**31 - 1))
    def test_permutation_invariant(self, values, seed):
        arr = np.array(values)
        shuffled = np.random.default_rng(seed).permutation(arr)
        a = log_average_luminance(arr)
        assert log_average_luminance(shuffled) == pytest.approx(a, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 200), min_size=2, max_size=30))
    def test_raising_samples_raises_average(self, values):
        arr = np.array(values)
        assert log_average_luminance(arr + 5.0) > log_average_luminance(arr)

    def test_matches_plain_math_oracle(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(0, 255, size=200)
        assert log_average_luminance(samples) == pytest.approx(log_avg_oracle(samples), rel=1e-12)

    def test_empty_region(self):
        with pytest.raises(ValueError, match="zero samples"):
            log_average_luminance(np.array([]))

    @pytest.mark.parametrize("bad_y", [-5.0, math.nan])
    def test_y_without_a_log_is_named(self, bad_y):
        # A Y of -DELTA or less, or NaN, has no log(DELTA + Y): every entry
        # point names it, where it gave nan or an empty candidate set.
        y = np.full((64, 64), 90.0)
        y[10, 20] = bad_y
        message = f"smallest Y of {bad_y!r}"
        with pytest.raises(ValueError, match=message):
            log_average_luminance(np.array([10.0, bad_y]))
        with pytest.raises(ValueError, match=message):
            candidate_blocks(ycc_from_y(y))
        with pytest.raises(ValueError, match=message):
            select_blocks(ycc_from_y(y))


class TestPartitionGrid:
    def test_exact_division(self):
        assert partition_grid(512, 512) == (64, 64)

    def test_floor_division(self):
        assert partition_grid(100, 60) == (12, 7)

    def test_too_small(self):
        with pytest.raises(ImageTooSmall):
            partition_grid(7, 100)
        with pytest.raises(ImageTooSmall):
            partition_grid(100, 7)


class TestCandidateBlocks:
    def test_uniform_image_all_blocks_candidates(self):
        img = ycc_from_y(np.full((32, 40), 90.0))
        assert candidate_blocks(img) == {BlockRef(c, r) for c in range(5) for r in range(4)}

    def test_two_tone_halves(self):
        y = np.full((64, 64), 50.0)
        y[:, :32] = 200.0
        got = candidate_blocks(ycc_from_y(y))
        expected = {BlockRef(c, r) for c in range(4) for r in range(8)}
        assert got == expected
        assert got == {BlockRef(c, r) for (c, r) in candidate_oracle(y)}

    def test_single_block_image(self):
        img = ycc_from_y(np.full((8, 8), 10.0))
        assert candidate_blocks(img) == {BlockRef(0, 0)}

    def test_remainder_pixels_count_toward_image_average(self):
        # One 8x8 block of Y=100 plus a bright 4-column remainder: the block
        # alone would tie the image average, but the remainder pulls the
        # average above it, so the block must not be a candidate.
        y = np.full((8, 12), 100.0)
        y[:, 8:] = 250.0
        assert candidate_blocks(ycc_from_y(y)) == set()

    def test_matches_brute_force_on_random_images(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            y = rng.uniform(0, 255, size=(rng.integers(8, 40), rng.integers(8, 40)))
            got = {(b.col, b.row) for b in candidate_blocks(ycc_from_y(y))}
            assert got == candidate_oracle(y)


@contextlib.contextmanager
def _source(source: str, pixels: np.ndarray, y: np.ndarray):
    """The pixels as an RgbImage, as a P6 file read through RgbFile, or their
    Y plane as a YcbcrImage."""
    if source == "rgb":
        yield RgbImage(pixels)
    elif source == "ycc":
        yield ycc_from_y(y)
    else:
        with tempfile.TemporaryFile() as fh:
            fh.write(write_rgb_image(RgbImage(pixels)))
            fh.flush()
            yield RgbFile(fh)


def _dark_centre_pixels(seed: int, width: int, height: int, dark_blocks: int) -> np.ndarray:
    """Random noise with the blocks within ``dark_blocks`` of the spiral's
    start darkened, so that selection's window of block means must grow past
    them to find its candidates."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    col, row = width // 16, height // 16
    top, left = max(0, row - dark_blocks) * 8, max(0, col - dark_blocks) * 8
    bottom, right = (row + dark_blocks + 1) * 8, (col + dark_blocks + 1) * 8
    pixels[top:bottom, left:right] //= int(rng.integers(4, 32))
    return pixels


class TestStreamedLogStats:
    """The streamed image mean and block means against the dense plane."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["rgb", "ycc", "file"]),
        st.sampled_from(["random", "gray", "levels", "periodic"]),
        st.integers(0, 2**31 - 1),
        st.integers(8, 1100),
        st.integers(8, 1100),
    )
    @example("rgb", "random", 0, 8, 8)
    @example("ycc", "random", 1, 8, 1100)
    @example("rgb", "levels", 2, 1100, 8)
    @example("rgb", "random", 3, 1100, 1100)
    @example("ycc", "random", 4, 1000, 777)
    @example("rgb", "periodic", 5, 601, 600)
    @example("rgb", "random", 6, 128, 64)  # n is exactly one leaf
    @example("rgb", "levels", 7, 8, 1100)  # a leaf spans many strips
    @example("rgb", "random", 8, 300, 36)  # the last strip is shorter than a block row
    @example("file", "random", 9, 300, 36)
    @example("file", "levels", 10, 1100, 1100)
    def test_mask_and_mean_equal_the_dense_plane_bit_for_bit(self, source, kind, seed, width, height):
        pixels = _test_pixels(kind, seed, width, height)
        y = pixels @ RGB_TO_YCC[0]
        dense_block_means, dense_mean = dense_log_stats(y)
        grid_rows, grid_cols = dense_block_means.shape
        # A window as selection takes one: centred anywhere, radius >= 1.
        rng = np.random.default_rng(seed)
        col, row, radius = rng.integers(grid_cols), rng.integers(grid_rows), rng.integers(1, 9)
        cols = range(max(0, col - radius), min(grid_cols, col + radius + 1))
        rows = range(max(0, row - radius), min(grid_rows, row + radius + 1))
        with _source(source, pixels, y) as img:
            image_log_mean = _image_log_mean(img)
            block_means = _window_log_means(img, range(grid_cols), range(grid_rows))
            window = _window_log_means(img, cols, rows)
            mask = {(b.col, b.row) for b in candidate_blocks(img)}
        assert image_log_mean == dense_mean
        dense_mask = dense_block_means >= dense_mean - TIE_TOLERANCE
        assert mask == {(int(c), int(r)) for r, c in zip(*np.nonzero(dense_mask))}
        # The mask's slack hides last-bit noise, so check the block means too.
        assert np.array_equal(block_means, dense_block_means)
        assert np.array_equal(window, dense_block_means[rows.start : rows.stop, cols.start : cols.stop])
        whole_plane = np.empty((grid_rows, grid_cols))
        _block_log_means(np.log(DELTA + y[: grid_rows * 8]), whole_plane)
        assert np.array_equal(whole_plane, dense_block_means)


class TestSpiralOrder:
    def test_1x1(self):
        assert spiral_order(1, 1) == [BlockRef(0, 0)]

    def test_3x3_hand_derived_sequence(self):
        expected = [(1, 1), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1), (0, 0), (1, 0), (2, 0)]
        assert [(b.col, b.row) for b in spiral_order(3, 3)] == expected
        assert spiral_oracle(3, 3) == expected

    def test_matches_independent_enumerator_up_to_9x9(self):
        for cols in range(1, 10):
            for rows in range(1, 10):
                got = [(b.col, b.row) for b in spiral_order(cols, rows)]
                assert got == spiral_oracle(cols, rows), f"grid {cols}x{rows}"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 14))
    def test_is_permutation_of_grid(self, cols, rows):
        seq = spiral_order(cols, rows)
        assert len(seq) == cols * rows
        assert len(set(seq)) == cols * rows
        assert all(0 <= b.col < cols and 0 <= b.row < rows for b in seq)

    def test_starts_at_center(self):
        assert spiral_order(64, 64)[0] == BlockRef(32, 32)
        assert spiral_order(5, 9)[0] == BlockRef(2, 4)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            spiral_order(0, 3)


class TestSelectBlocks:
    def test_uniform_image_takes_first_16_spiral_cells(self):
        plan = select_blocks(ycc_from_y(np.full((512, 512), 128.0)))
        assert list(plan.blocks) == spiral_order(64, 64)[:16]
        assert plan.grid_cols == plan.grid_rows == 64
        assert plan.image_log_avg == pytest.approx(128.0001, rel=1e-9)

    def test_rgb_selection_builds_no_y_plane(self):
        # Selection streams its strips: the peak is a few strip buffers,
        # about 0.3 of the float64 Y plane at 512 px and 0.08 at 2048 px.
        # The dark centre's 37x37 blocks hold no candidate, so the window
        # grows to the whole grid and is streamed as well.
        dark_centre = RgbImage(_dark_centre_pixels(6, 512, 512, 18))
        for img in (random_image(np.random.default_rng(5), 512, 512), dark_centre):
            _, peak = traced_peak(select_blocks, img)
            assert peak <= 0.4 * 512 * 512 * 8

    def test_leaves_nothing_for_the_cycle_collector(self):
        # With the cycle collector off, a reference cycle in selection would
        # keep each call's strip buffer (about 200 KiB at 512 px) alive.
        img = corpus_image("smooth_blobs")
        select_blocks(img)
        was_enabled, was_tracing = gc.isenabled(), tracemalloc.is_tracing()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                select_blocks(img)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert live <= 64 * 1024

    def test_corpus_takes_block_means_of_the_first_window_only(self, corpus, monkeypatch):
        # The corpus's 16th candidate lies well inside the first window, so
        # selection takes the means of its 81 blocks, not of all 4096.
        sizes = []

        def spy(logs, out):
            sizes.append(out.size)
            _block_log_means(logs, out)

        monkeypatch.setattr(selection, "_block_log_means", spy)
        for name, img in corpus.items():
            sizes.clear()
            select_blocks(img)
            assert 0 < sum(sizes) <= (2 * selection._WINDOW_RADIUS + 1) ** 2, name

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["rgb", "ycc", "file"]),
        st.integers(0, 2**31 - 1),
        st.integers(40, 260),
        st.integers(40, 260),
        st.integers(0, 16),
    )
    @example("rgb", 0, 200, 200, 6)  # the window grows to radius 8
    @example("file", 1, 260, 200, 12)  # and to the whole grid
    @example("ycc", 2, 88, 96, 5)  # too few candidates anywhere
    def test_dark_centre_plans_equal_the_oracle(self, source, seed, width, height, dark_blocks):
        pixels = _dark_centre_pixels(seed, width, height, dark_blocks)
        y = pixels @ RGB_TO_YCC[0]
        grid_cols, grid_rows = width // 8, height // 8
        cands = candidate_oracle(y)
        expected = [BlockRef(c, r) for c, r in spiral_oracle(grid_cols, grid_rows) if (c, r) in cands]
        with _source(source, pixels, y) as img:
            if len(expected) < 16:
                message = f"^{len(expected)} candidate blocks, need 16$"
                with pytest.raises(InsufficientCandidates, match=message):
                    select_blocks(img)
                return
            plan = select_blocks(img)
        assert list(plan.blocks) == expected[:16]
        assert plan.image_log_avg == float(np.exp(dense_log_stats(y)[1]))

    def test_insufficient_candidates_counts_the_whole_grid(self):
        # 16x16 grid: 5 bright blocks about the spiral's start and 5 in a
        # corner, so the first window holds 5 candidates and the grid 10.
        y = np.full((128, 128), 50.0)
        for col, row in [(8, 8), (9, 8), (7, 8), (8, 7), (8, 9), (0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]:
            y[row * 8 : row * 8 + 8, col * 8 : col * 8 + 8] = 200.0
        assert len(candidate_oracle(y)) == 10
        with pytest.raises(InsufficientCandidates, match="^10 candidate blocks, need 16$"):
            select_blocks(ycc_from_y(y))

    def test_exactly_15_candidates_is_insufficient(self):
        # 5x5 grid: 15 bright blocks, 10 dark ones.
        y = np.full((40, 40), 50.0)
        bright = 0
        for row in range(5):
            for col in range(5):
                if bright < 15:
                    y[row * 8 : row * 8 + 8, col * 8 : col * 8 + 8] = 200.0
                    bright += 1
        assert len(candidate_oracle(y)) == 15
        with pytest.raises(InsufficientCandidates):
            select_blocks(ycc_from_y(y))

    def test_all_chosen_blocks_satisfy_candidate_predicate(self, corpus):
        for img in corpus.values():
            plan = select_blocks(img)
            cands = candidate_oracle(img.pixels @ RGB_TO_YCC[0])
            assert all((b.col, b.row) in cands for b in plan.blocks)

    def test_chosen_blocks_appear_in_spiral_order(self, corpus):
        for img in corpus.values():
            plan = select_blocks(img)
            order = {ref: i for i, ref in enumerate(spiral_order(plan.grid_cols, plan.grid_rows))}
            positions = [order[b] for b in plan.blocks]
            assert positions == sorted(positions)

    def test_deterministic_and_byte_equal(self):
        y = np.random.default_rng(3).uniform(20, 230, size=(128, 96))
        a = select_blocks(ycc_from_y(y))
        b = select_blocks(ycc_from_y(y.copy()))
        assert a == b
        assert serialize_plan(a) == serialize_plan(b)

    def test_too_small_image(self):
        with pytest.raises(ImageTooSmall):
            select_blocks(ycc_from_y(np.full((4, 4), 9.0)))

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["random", "gray", "levels", "periodic"]),
        st.integers(0, 2**31 - 1),
        st.integers(32, 140),
        st.integers(32, 140),
    )
    def test_rgb_input_selects_as_its_ycbcr(self, kind, seed, width, height):
        img = RgbImage(_test_pixels(kind, seed, width, height))
        try:
            expected = select_blocks(rgb_to_ycbcr(img))
        except InsufficientCandidates:
            with pytest.raises(InsufficientCandidates):
                select_blocks(img)
            return
        got = select_blocks(img)
        assert got.blocks == expected.blocks
        assert candidate_blocks(img) == candidate_blocks(rgb_to_ycbcr(img))
        assert (got.grid_cols, got.grid_rows) == (expected.grid_cols, expected.grid_rows)
        assert got.image_log_avg == pytest.approx(expected.image_log_avg, rel=1e-12)


class TestPlanSerialization:
    def test_roundtrip(self):
        plan = select_blocks(ycc_from_y(np.full((130, 70), 77.0)))
        assert parse_plan(serialize_plan(plan)) == plan

    def test_layout(self):
        plan = select_blocks(ycc_from_y(np.full((128, 128), 50.0)))
        lines = serialize_plan(plan).splitlines()
        assert lines[0] == "block_size=8"
        assert lines[1] == "grid_cols=16"
        assert lines[2] == "grid_rows=16"
        assert lines[3] == "delta=0.0001"
        assert len(lines) == 5 + 16
        assert lines[5] == "8,8"

    def test_corpus_plan_file_is_pinned(self, corpus):
        # The bytes that plan files have always had: a dump made before delta
        # became a constant loads, and a new dump matches it.
        pinned = (
            "block_size=8\ngrid_cols=64\ngrid_rows=64\ndelta=0.0001\n"
            "image_log_avg=120.1363454441186\n32,32\n33,32\n33,33\n32,33\n31,33\n"
            "31,32\n31,31\n32,31\n33,31\n34,31\n34,32\n34,33\n34,34\n33,34\n32,34\n31,34\n"
        )
        plan = select_blocks(corpus["smooth_blobs"])
        assert serialize_plan(plan) == pinned
        assert parse_plan(pinned) == plan

    def test_parse_rejects_wrong_block_count(self):
        plan = select_blocks(ycc_from_y(np.full((128, 128), 50.0)))
        text = "\n".join(serialize_plan(plan).splitlines()[:-1]) + "\n"
        with pytest.raises(ValueError):
            parse_plan(text)

    @pytest.mark.parametrize("number,line", [(1, "33;32"), (7, "32,32,7"), (16, "5")])
    def test_bad_block_line_is_named(self, number, line):
        plan = select_blocks(ycc_from_y(np.full((128, 128), 50.0)))
        lines = serialize_plan(plan).splitlines()
        lines[4 + number] = line
        with pytest.raises(ValueError, match=f"bad plan block line {number}: '{line}'"):
            parse_plan("\n".join(lines) + "\n")

    @pytest.mark.parametrize("field,value", IMPOSSIBLE_PLAN_VALUES)
    def test_impossible_values_rejected(self, corpus, field, value):
        plan = select_blocks(corpus["smooth_blobs"])
        text = edit_plan_field(serialize_plan(plan), field, value)
        assert text != serialize_plan(plan)
        with pytest.raises(ValueError, match=PLAN_VALUE_ERRORS[field]):
            parse_plan(text)
        if hasattr(plan, field):  # delta is a constant, not a field of the plan
            with pytest.raises(ValueError, match=PLAN_VALUE_ERRORS[field]):
                dataclasses.replace(plan, **{field: float(value)})

    def test_plan_invariants(self):
        blocks = tuple(BlockRef(c, 0) for c in range(16))
        with pytest.raises(ValueError):
            SelectionPlan(blocks=blocks[:15], grid_cols=16, grid_rows=1,
                          image_log_avg=1.0)
        with pytest.raises(ValueError):
            SelectionPlan(blocks=blocks[:15] + (blocks[0],), grid_cols=16, grid_rows=1,
                          image_log_avg=1.0)
        with pytest.raises(ValueError):
            SelectionPlan(blocks=blocks[:15] + (BlockRef(99, 0),), grid_cols=16, grid_rows=1,
                          image_log_avg=1.0)
