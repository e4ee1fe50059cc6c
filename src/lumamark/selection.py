"""Block selection: log-average luminance, 8x8 grid, center-out spiral.

The 16 blocks that carry the watermark are the first 16 blocks, walking a
square spiral outward from the grid center, whose log-average luminance is
at least the log-average luminance of the entire image.

The statistics stream through the image's ``rows``, ``STRIP_ROWS`` at a time
(an ``RgbFile`` is read strip by strip), so no Y plane is built. One pass
takes the whole image's mean log; block means come from a window centred on
the spiral's start, grown until it holds 16 candidates or covers the grid.
The spiral walks the whole window before any cell outside it, so the plan is
the whole grid's. Both equal the dense plane's ``log(DELTA + Y).mean()`` and
block ``.mean(axis=(1, 3))`` bit for bit:

- A strip's Y is the plane's matrix-vector product ``pixels @ RGB_TO_YCC[0]``
  row by row, and ``log`` works element by element, so a pixel's log depends
  on its own RGB triple alone, and a block's mean on its own 64 logs.
- A block mean adds in numpy's own order: each block row's 8 logs pairwise,
  the 8 row sums in turn, then divides by 64 (numpy orders a lone block
  column differently, so there its own reduce runs).
- numpy sums the whole plane pairwise, splitting any run longer than 128 at
  half its length rounded down to a multiple of 8. The split depends only
  on the length, so every subtree is ``np.add.reduce`` of its own run. One
  recursion walks the tree down to runs of at most ``_LEAF`` logs, which
  pull in strips as they need them and are reduced on their own.
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .colorspace import RGB_TO_YCC, STRIP_ROWS, YcbcrImage
from .errors import ImageTooSmall, InsufficientCandidates
from .pixmap import RgbFile, RgbImage

BLOCK_SIZE = 8
PLAN_BLOCKS = 16

# Additive guard inside the log (Reinhard et al. 2002), so black pixels stay finite.
DELTA = 0.0001

# Candidate ties are compared in the log domain with this slack, so that
# mathematically equal averages (uniform regions) survive the differing
# summation orders of block and whole-image means (noise is ~1e-15).
TIE_TOLERANCE = 1e-9


class BlockRef(NamedTuple):
    col: int
    row: int


@dataclass(frozen=True)
class SelectionPlan:
    """The ordered 16 blocks chosen for embedding, plus what produced them."""

    blocks: tuple[BlockRef, ...]
    grid_cols: int
    grid_rows: int
    image_log_avg: float

    def __post_init__(self):
        value = self.image_log_avg
        if not 0 < value < np.inf:
            raise ValueError(f"image_log_avg must be finite and positive, got {value!r}")
        if len(self.blocks) != PLAN_BLOCKS:
            raise ValueError(f"plan must hold {PLAN_BLOCKS} blocks, got {len(self.blocks)}")
        if len(set(self.blocks)) != PLAN_BLOCKS:
            raise ValueError("plan blocks must be distinct")
        for b in self.blocks:
            if not (0 <= b.col < self.grid_cols and 0 <= b.row < self.grid_rows):
                raise ValueError(f"block {b} outside {self.grid_cols}x{self.grid_rows} grid")


def _check_logs_defined(y: np.ndarray) -> None:
    y_min = float(y.min())
    if not DELTA + y_min > 0:
        raise ValueError(f"log(delta + Y) needs Y > -delta, got a smallest Y of {y_min!r}")


def log_average_luminance(y_values: np.ndarray) -> float:
    """exp of the mean of log(DELTA + Y): the geometric brightness of a region."""
    samples = np.asarray(y_values, dtype=np.float64).reshape(-1)
    if samples.size == 0:
        raise ValueError("log-average luminance of zero samples")
    _check_logs_defined(samples)
    return float(np.exp(np.log(DELTA + samples).mean()))


def partition_grid(width: int, height: int) -> tuple[int, int]:
    """(grid_cols, grid_rows) of full 8x8 blocks; remainder pixels join no block."""
    if width < BLOCK_SIZE or height < BLOCK_SIZE:
        raise ImageTooSmall(f"{width}x{height} admits no {BLOCK_SIZE}x{BLOCK_SIZE} block")
    return width // BLOCK_SIZE, height // BLOCK_SIZE


# Leaves of numpy's pairwise-sum tree that ``_image_log_mean`` reduces on
# their own, in elements. At least numpy's 128-element unrolled block, so
# numpy never splits a run this short, and small enough that the part of a
# leaf carried over from one strip to the next is a cache-sized copy.
_LEAF = 8192

# Pixels that ``_strip_logs`` casts to float64 for one Y product (384 KiB): a
# 512 px strip, or eight rows at 2048 px. Eight-row products at 512 px were
# 7% slower, and whole 2048 px strips cast 1.5 MiB.
_CAST_PIXELS = 16384

# Radius in blocks of select_blocks' first window; it doubles until 16
# candidates lie inside. The corpus's 16th candidate is within radius 3. At
# least 1, so a window is one block wide (lone-column order) only if the grid is.
_WINDOW_RADIUS = 4


def _pairwise_sum(n: int, leaf_sum: Callable[[int], float]) -> float:
    """numpy's pairwise sum of ``n`` elements, with ``leaf_sum(size)`` summing
    each run of at most ``_LEAF`` in order. numpy splits a longer run at half
    its length rounded down to a multiple of its 8-way unroll."""
    if n <= _LEAF:
        return leaf_sum(n)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(half, leaf_sum) + _pairwise_sum(n - half, leaf_sum)


def _block_log_means(logs: np.ndarray, out: np.ndarray) -> None:
    """Write the means of the 8x8 blocks of ``logs``, whole block rows, into
    ``out``, bit for bit ``.mean(axis=(1, 3))`` of their 4-d view."""
    grid_cols = out.shape[1]
    blocks = logs[:, : grid_cols * BLOCK_SIZE].reshape(-1, BLOCK_SIZE, grid_cols, BLOCK_SIZE)
    if grid_cols == 1:
        # numpy sums a lone block column column-first; its reduce is cheap here.
        out[...] = blocks.mean(axis=(1, 3))
        return
    # numpy sums each block row's 8 values pairwise, then the 8 rows in turn.
    pairs = blocks[..., 0::2] + blocks[..., 1::2]
    quads = pairs[..., 0::2] + pairs[..., 1::2]
    row_sums = np.add(quads[..., 0], quads[..., 1], out=pairs[..., 0])
    np.add.reduce(row_sums, axis=1, out=out)
    np.divide(out, BLOCK_SIZE * BLOCK_SIZE, out=out)


def _strip_logs(
    img: RgbImage | RgbFile | YcbcrImage, top: int, left: int, logs: np.ndarray
) -> None:
    """Write log(DELTA + Y) of as many pixels as fit, from (top, left), into ``logs``."""
    bottom, right = top + logs.shape[0], left + logs.shape[1]
    if isinstance(img, YcbcrImage):
        logs[...] = img.y[top:bottom, left:right]
    else:
        px, step = img.rows(top, bottom)[:, left:right], max(1, _CAST_PIXELS // logs.shape[1])
        for k in range(0, bottom - top, step):
            np.matmul(px[k : k + step], RGB_TO_YCC[0], out=logs[k : k + step])
    np.log(np.add(logs, DELTA, out=logs), out=logs)


def _image_log_mean(img: RgbImage | RgbFile | YcbcrImage) -> float:
    """The whole-image mean of log(DELTA + Y), bit for bit the plane's
    ``.mean()``. The pairwise tree pulls strips of ``STRIP_ROWS`` rows as its
    leaves need them, into one reused buffer after the logs that earlier
    leaves left over."""
    width, height = img.width, img.height
    if isinstance(img, YcbcrImage):
        _check_logs_defined(img.y)
    buffer = np.empty(_LEAF + STRIP_ROWS * width)
    start = filled = top = 0

    # Not nested in itself: a self-referencing closure is a reference cycle
    # that would keep every call's buffer alive until the cycle collector runs.
    def leaf_sum(size: int) -> float:
        nonlocal start, filled, top
        while filled - start < size:
            filled -= start
            buffer[:filled] = buffer[start : start + filled]
            start = 0
            bottom = min(top + STRIP_ROWS, height)
            logs = buffer[filled : filled + (bottom - top) * width].reshape(bottom - top, width)
            _strip_logs(img, top, 0, logs)
            filled += logs.size
            top = bottom
        start += size
        return np.add.reduce(buffer[start - size : start])

    n = width * height
    return float(_pairwise_sum(n, leaf_sum) / n)


def _window_log_means(img: RgbImage | RgbFile | YcbcrImage, cols: range, rows: range) -> np.ndarray:
    """The (len(rows), len(cols)) means of log(DELTA + Y) over the blocks in
    ``rows`` x ``cols``, a strip at a time, bit for bit the plane's
    ``.mean(axis=(1, 3))`` there: a block's mean reads only its own 64 logs."""
    left, width = cols.start * BLOCK_SIZE, len(cols) * BLOCK_SIZE
    out, buffer = np.empty((len(rows), len(cols))), np.empty(STRIP_ROWS * width)
    for first in range(0, len(rows), STRIP_ROWS // BLOCK_SIZE):
        strip = out[first : first + STRIP_ROWS // BLOCK_SIZE]
        logs = buffer[: strip.size * BLOCK_SIZE * BLOCK_SIZE].reshape(-1, width)
        _strip_logs(img, (rows.start + first) * BLOCK_SIZE, left, logs)
        _block_log_means(logs, strip)
    return out


def candidate_blocks(img: RgbImage | RgbFile | YcbcrImage) -> set[BlockRef]:
    """Blocks whose log-average luminance >= the whole image's (ties included).

    The whole-image value is taken over every pixel, including remainder rows
    and columns that belong to no block. The comparison happens in the log
    domain with TIE_TOLERANCE of slack.
    """
    grid_cols, grid_rows = partition_grid(img.width, img.height)
    threshold = _image_log_mean(img) - TIE_TOLERANCE
    rows, cols = np.nonzero(_window_log_means(img, range(grid_cols), range(grid_rows)) >= threshold)
    return {BlockRef(int(c), int(r)) for r, c in zip(rows, cols)}


def _spiral(grid_cols: int, grid_rows: int) -> Iterator[BlockRef]:
    col, row = grid_cols // 2, grid_rows // 2
    yield BlockRef(col, row)
    remaining = grid_cols * grid_rows - 1
    directions = ((1, 0), (0, 1), (-1, 0), (0, -1))
    run, leg = 1, 0
    while remaining:
        dc, dr = directions[leg % 4]
        for _ in range(run):
            col += dc
            row += dr
            if 0 <= col < grid_cols and 0 <= row < grid_rows:
                yield BlockRef(col, row)
                remaining -= 1
                if not remaining:
                    return
        leg += 1
        if leg % 2 == 0:
            run += 1


def spiral_order(grid_cols: int, grid_rows: int) -> list[BlockRef]:
    """Every grid cell once, walking a square spiral out from the grid center.

    Start at (grid_cols // 2, grid_rows // 2); directions cycle right, down,
    left, up with run lengths 1, 1, 2, 2, 3, 3, ...; positions outside the
    grid are skipped but the walk continues until the grid is covered.
    """
    if grid_cols < 1 or grid_rows < 1:
        raise ValueError("grid must be at least 1x1")
    return list(_spiral(grid_cols, grid_rows))


def select_blocks(img: RgbImage | RgbFile | YcbcrImage) -> SelectionPlan:
    """First 16 candidate blocks in spiral order, as a reproducible plan.

    The spiral walk stops at the 16th candidate.
    """
    grid_cols, grid_rows = partition_grid(img.width, img.height)
    image_log_mean = _image_log_mean(img)
    col, row, radius = grid_cols // 2, grid_rows // 2, _WINDOW_RADIUS
    while True:
        cols = range(max(0, col - radius), min(grid_cols, col + radius + 1))
        rows = range(max(0, row - radius), min(grid_rows, row + radius + 1))
        is_candidate = _window_log_means(img, cols, rows) >= image_log_mean - TIE_TOLERANCE
        count = int(is_candidate.sum())
        if count >= PLAN_BLOCKS or len(cols) * len(rows) == grid_cols * grid_rows:
            break
        radius *= 2
    if count < PLAN_BLOCKS:
        raise InsufficientCandidates(f"{count} candidate blocks, need {PLAN_BLOCKS}")
    # The spiral covers the window first, and 16 candidates lie in it.
    walk = (r for r in _spiral(grid_cols, grid_rows)
            if is_candidate[r.row - rows.start, r.col - cols.start])
    return SelectionPlan(
        blocks=tuple(islice(walk, PLAN_BLOCKS)),
        grid_cols=grid_cols,
        grid_rows=grid_rows,
        image_log_avg=float(np.exp(image_log_mean)),
    )


def serialize_plan(plan: SelectionPlan) -> str:
    """Canonical text form: header fields, then one 'col,row' line per block."""
    lines = [
        f"block_size={BLOCK_SIZE}",
        f"grid_cols={plan.grid_cols}",
        f"grid_rows={plan.grid_rows}",
        f"delta={DELTA!r}",
        f"image_log_avg={plan.image_log_avg!r}",
    ]
    lines.extend(f"{b.col},{b.row}" for b in plan.blocks)
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> SelectionPlan:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 5 + PLAN_BLOCKS:
        raise ValueError(f"plan must have 5 header lines and {PLAN_BLOCKS} blocks")
    header = {}
    for ln in lines[:5]:
        key, _, value = ln.partition("=")
        header[key] = value
    try:
        block_size = int(header["block_size"])
        grid_cols = int(header["grid_cols"])
        grid_rows = int(header["grid_rows"])
        delta = float(header["delta"])
        image_log_avg = float(header["image_log_avg"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad plan header: {exc}") from exc
    if block_size != BLOCK_SIZE:
        raise ValueError(f"unsupported block size {block_size}")
    if delta != DELTA:
        raise ValueError(f"unsupported delta {delta!r}, plans use {DELTA!r}")
    blocks = []
    for number, ln in enumerate(lines[5:], start=1):
        col_s, _, row_s = ln.partition(",")
        try:
            blocks.append(BlockRef(int(col_s), int(row_s)))
        except ValueError as exc:
            raise ValueError(f"bad plan block line {number}: {ln!r}") from exc
    return SelectionPlan(
        blocks=tuple(blocks),
        grid_cols=grid_cols,
        grid_rows=grid_rows,
        image_log_avg=image_log_avg,
    )


def plan_summary(plan: SelectionPlan) -> str:
    """Short human-readable digest used by the command-line tools."""
    blocks = " ".join(f"{b.col},{b.row}" for b in plan.blocks)
    return (
        f"grid={plan.grid_cols}x{plan.grid_rows}\n"
        f"image_log_avg={plan.image_log_avg:.3f}\n"
        f"blocks={blocks}"
    )
