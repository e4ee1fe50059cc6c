"""How carrier blocks are chosen: log-average luminance plus a center-out spiral.

A block qualifies when its log-average luminance (the exp of the mean of
log(delta + Y)) reaches the whole image's. The 16 carriers are the first
qualifying blocks along a square spiral that starts at the grid center --
so the watermark sits in bright, central image content, and dark pockets
near the center are skipped.
"""

import numpy as np

from lumamark import candidate_blocks, log_average_luminance, select_blocks
from lumamark.colorspace import RGB_TO_YCC
from lumamark.selection import BlockRef, spiral_order
from lumamark.testimages import corpus_image


def main():
    image = corpus_image("fine_texture")
    y = image.pixels @ RGB_TO_YCC[0]

    image_avg = log_average_luminance(y)
    print(f"whole-image log-average luminance: {image_avg:.3f}")
    print(f"plain mean luminance (for contrast): {y.mean():.3f}\n")

    candidates = candidate_blocks(image)
    plan = select_blocks(image)
    print(f"grid: {plan.grid_cols}x{plan.grid_rows} blocks of 8x8")
    print(f"candidate blocks at or above the image average: {len(candidates)}")
    print(f"chosen carriers: {[(b.col, b.row) for b in plan.blocks]}\n")

    walked = spiral_order(plan.grid_cols, plan.grid_rows)
    first_16 = walked[: len(plan.blocks)]
    skipped = [ref for ref in first_16 if ref not in plan.blocks]
    print(f"spiral cells skipped as too dark: {[(b.col, b.row) for b in skipped]}\n")

    # map of the grid center: '#' chosen, '+' candidate, '.' below average
    chosen = set(plan.blocks)
    print("grid center (columns 26..37, rows 26..37):")
    for row in range(26, 38):
        cells = []
        for col in range(26, 38):
            ref = BlockRef(col, row)
            cells.append("#" if ref in chosen else "+" if ref in candidates else ".")
        print(" ".join(cells))

    # per-block statistics around the dark pocket
    print("\nsample block log-averages (row 32):")
    for col in range(28, 36):
        block = y[32 * 8 : 33 * 8, col * 8 : (col + 1) * 8]
        avg = log_average_luminance(block)
        flag = "candidate" if avg >= image_avg else "below average"
        print(f"  block ({col},32): {avg:8.3f}  {flag}")


if __name__ == "__main__":
    main()
