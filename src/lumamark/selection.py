"""Block selection: log-average luminance, 8x8 grid, center-out spiral.

The 16 blocks that carry the watermark are the first 16 blocks, walking a
square spiral outward from the grid center, whose log-average luminance is
at least the log-average luminance of the entire image.

The statistics stream through strips of ``STRIP_ROWS`` rows, so no Y plane
is built, and they equal the dense plane's ``log(delta + Y).mean()`` and
block ``.mean(axis=(1, 3))`` bit for bit:

- A strip's Y is the same matrix-vector product per row as ``luminance``,
  and ``log`` works element by element.
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
from .errors import EmptyRegion, ImageTooSmall, InsufficientCandidates
from .pixmap import RgbImage

BLOCK_SIZE = 8
PLAN_BLOCKS = 16

# Additive guard inside the log, so completely black pixels stay finite.
DEFAULT_DELTA = 0.0001

# Candidate ties are compared in the log domain with this slack, so that
# mathematically equal averages (uniform regions) survive the differing
# summation orders of block and whole-image means (noise is ~1e-15).
TIE_TOLERANCE = 1e-9


def _check_finite_positive(name: str, value: float) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


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
    delta: float

    def __post_init__(self):
        _check_finite_positive("delta", self.delta)
        _check_finite_positive("image_log_avg", self.image_log_avg)
        if len(self.blocks) != PLAN_BLOCKS:
            raise ValueError(f"plan must hold {PLAN_BLOCKS} blocks, got {len(self.blocks)}")
        if len(set(self.blocks)) != PLAN_BLOCKS:
            raise ValueError("plan blocks must be distinct")
        for b in self.blocks:
            if not (0 <= b.col < self.grid_cols and 0 <= b.row < self.grid_rows):
                raise ValueError(f"block {b} outside {self.grid_cols}x{self.grid_rows} grid")


def _check_logs_defined(y: np.ndarray, delta: float) -> None:
    y_min = float(y.min())
    if not delta + y_min > 0:
        raise ValueError(f"log(delta + Y) needs Y > -delta, got a smallest Y of {y_min!r}")


def log_average_luminance(y_values: np.ndarray, delta: float = DEFAULT_DELTA) -> float:
    """exp of the mean of log(delta + Y): the geometric brightness of a region."""
    _check_finite_positive("delta", delta)
    samples = np.asarray(y_values, dtype=np.float64).reshape(-1)
    if samples.size == 0:
        raise EmptyRegion("log-average luminance of zero samples")
    _check_logs_defined(samples, delta)
    return float(np.exp(np.log(delta + samples).mean()))


def partition_grid(width: int, height: int) -> tuple[int, int]:
    """(grid_cols, grid_rows) of full 8x8 blocks; remainder pixels join no block."""
    if width < BLOCK_SIZE or height < BLOCK_SIZE:
        raise ImageTooSmall(f"{width}x{height} admits no {BLOCK_SIZE}x{BLOCK_SIZE} block")
    return width // BLOCK_SIZE, height // BLOCK_SIZE


# Leaves of numpy's pairwise-sum tree that ``_log_stats`` reduces on their
# own, in elements. At least numpy's 128-element unrolled block, so numpy
# never splits a run this short, and small enough that the part of a leaf
# carried over from one strip to the next is a cache-sized copy.
_LEAF = 8192


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


def _log_stats(img: RgbImage | YcbcrImage, delta: float) -> tuple[np.ndarray, float]:
    """The (grid_rows, grid_cols) candidate mask and the whole-image mean of
    log(delta + Y), streamed through strips of ``STRIP_ROWS`` rows.

    The pairwise tree pulls the strips as its leaves need them. Each strip's
    Y and logs go into one reused buffer, after the logs that earlier leaves
    left over. No Y plane is built, and both results are bit for bit those
    of the plane's ``.mean()`` and ``.mean(axis=(1, 3))``.
    """
    _check_finite_positive("delta", delta)
    width, height = img.width, img.height
    grid_cols, grid_rows = partition_grid(width, height)
    if isinstance(img, YcbcrImage):
        _check_logs_defined(img.y, delta)
    block_log_means = np.empty((grid_rows, grid_cols))
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
            if isinstance(img, RgbImage):
                np.matmul(img.pixels[top:bottom], RGB_TO_YCC[0], out=logs)
            else:
                logs[...] = img.y[top:bottom]
            np.log(np.add(logs, delta, out=logs), out=logs)
            block_bottom = min(bottom, grid_rows * BLOCK_SIZE)
            if block_bottom > top:
                _block_log_means(
                    logs[: block_bottom - top],
                    block_log_means[top // BLOCK_SIZE : block_bottom // BLOCK_SIZE],
                )
            filled += logs.size
            top = bottom
        start += size
        return np.add.reduce(buffer[start - size : start])

    n = width * height
    image_log_mean = float(_pairwise_sum(n, leaf_sum) / n)
    return block_log_means >= image_log_mean - TIE_TOLERANCE, image_log_mean


def candidate_blocks(img: RgbImage | YcbcrImage, delta: float = DEFAULT_DELTA) -> set[BlockRef]:
    """Blocks whose log-average luminance >= the whole image's (ties included).

    The whole-image value is taken over every pixel, including remainder rows
    and columns that belong to no block. The comparison happens in the log
    domain with TIE_TOLERANCE of slack.
    """
    is_candidate, _ = _log_stats(img, delta)
    rows, cols = np.nonzero(is_candidate)
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


def select_blocks(img: RgbImage | YcbcrImage, delta: float = DEFAULT_DELTA) -> SelectionPlan:
    """First 16 candidate blocks in spiral order, as a reproducible plan.

    The spiral walk stops at the 16th candidate.
    """
    grid_cols, grid_rows = partition_grid(img.width, img.height)
    is_candidate, image_log_mean = _log_stats(img, delta)
    count = int(is_candidate.sum())
    if count < PLAN_BLOCKS:
        raise InsufficientCandidates(f"{count} candidate blocks, need {PLAN_BLOCKS}")
    walk = (ref for ref in _spiral(grid_cols, grid_rows) if is_candidate[ref.row, ref.col])
    return SelectionPlan(
        blocks=tuple(islice(walk, PLAN_BLOCKS)),
        grid_cols=grid_cols,
        grid_rows=grid_rows,
        image_log_avg=float(np.exp(image_log_mean)),
        delta=delta,
    )


def serialize_plan(plan: SelectionPlan) -> str:
    """Canonical text form: header fields, then one 'col,row' line per block."""
    lines = [
        f"block_size={BLOCK_SIZE}",
        f"grid_cols={plan.grid_cols}",
        f"grid_rows={plan.grid_rows}",
        f"delta={plan.delta!r}",
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
        delta=delta,
    )


def plan_summary(plan: SelectionPlan) -> str:
    """Short human-readable digest used by the command-line tools."""
    blocks = " ".join(f"{b.col},{b.row}" for b in plan.blocks)
    return (
        f"grid={plan.grid_cols}x{plan.grid_rows}\n"
        f"image_log_avg={plan.image_log_avg:.3f}\n"
        f"blocks={blocks}"
    )
