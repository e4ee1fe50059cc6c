"""Block selection: log-average luminance, 8x8 grid, center-out spiral.

The 16 blocks that carry the watermark are the first 16 blocks, walking a
square spiral outward from the grid center, whose log-average luminance is
at least the log-average luminance of the entire image.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .colorspace import YcbcrImage, luminance
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


def log_average_luminance(y_values: np.ndarray, delta: float = DEFAULT_DELTA) -> float:
    """exp of the mean of log(delta + Y): the geometric brightness of a region."""
    _check_finite_positive("delta", delta)
    samples = np.asarray(y_values, dtype=np.float64).reshape(-1)
    if samples.size == 0:
        raise EmptyRegion("log-average luminance of zero samples")
    return float(np.exp(np.log(delta + samples).mean()))


def partition_grid(width: int, height: int) -> tuple[int, int]:
    """(grid_cols, grid_rows) of full 8x8 blocks; remainder pixels join no block."""
    if width < BLOCK_SIZE or height < BLOCK_SIZE:
        raise ImageTooSmall(f"{width}x{height} admits no {BLOCK_SIZE}x{BLOCK_SIZE} block")
    return width // BLOCK_SIZE, height // BLOCK_SIZE


def _log_stats(y: np.ndarray, delta: float) -> tuple[np.ndarray, float]:
    """One pass of log(delta + Y): the (grid_rows, grid_cols) candidate mask
    and the whole-image mean log. Overwrites ``y`` with the logs."""
    _check_finite_positive("delta", delta)
    grid_cols, grid_rows = partition_grid(y.shape[1], y.shape[0])
    logs = np.log(np.add(y, delta, out=y), out=y)
    image_log_mean = float(logs.mean())
    block_log_means = (
        logs[: grid_rows * BLOCK_SIZE, : grid_cols * BLOCK_SIZE]
        .reshape(grid_rows, BLOCK_SIZE, grid_cols, BLOCK_SIZE)
        .mean(axis=(1, 3))
    )
    return block_log_means >= image_log_mean - TIE_TOLERANCE, image_log_mean


def _y_plane(img: RgbImage | YcbcrImage) -> np.ndarray:
    """A writable Y plane for ``_log_stats``: an RgbImage's through
    ``luminance`` alone, without building chroma; a copy of a YcbcrImage's
    read-only plane."""
    return luminance(img.pixels) if isinstance(img, RgbImage) else img.y.copy()


def candidate_blocks(img: RgbImage | YcbcrImage, delta: float = DEFAULT_DELTA) -> set[BlockRef]:
    """Blocks whose log-average luminance >= the whole image's (ties included).

    The whole-image value is taken over every pixel, including remainder rows
    and columns that belong to no block. The comparison happens in the log
    domain with TIE_TOLERANCE of slack.
    """
    is_candidate, _ = _log_stats(_y_plane(img), delta)
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
    is_candidate, image_log_mean = _log_stats(_y_plane(img), delta)
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
    for ln in lines[5:]:
        col_s, _, row_s = ln.partition(",")
        blocks.append(BlockRef(int(col_s), int(row_s)))
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
