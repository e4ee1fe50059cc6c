"""Command-line front end: embed, extract, attack, metrics, report.

Exit codes: 0 success, 1 I/O or file-format trouble, 2 domain errors
(image too small, not enough candidate blocks, dimension mismatch) and
invalid usage. Output files are written to a temporary name and renamed
into place, so a failing run never leaves a partial file behind.
"""

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path

from . import attacks, codec, metrics, pixmap, selection
from .errors import (
    DimensionMismatch,
    EmptyRegion,
    ImageTooSmall,
    InsufficientCandidates,
    MalformedHeader,
    RectOutOfBounds,
    TruncatedPayload,
    WrongDimensions,
)

_FORMAT_ERRORS = (MalformedHeader, TruncatedPayload, WrongDimensions)
_DOMAIN_ERRORS = (
    ImageTooSmall,
    InsufficientCandidates,
    DimensionMismatch,
    RectOutOfBounds,
    EmptyRegion,
)


def _alpha_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("alpha must be >= 1")
    return value


def _delta_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("delta must be finite and positive")
    return value


def _quality_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("quality must lie in (0, 1]")
    return value


def _crop_arg(text: str) -> attacks.CropRect:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("crop must be X,Y,W,H")
    try:
        x, y, w, h = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad crop rectangle: {exc}") from exc
    return attacks.CropRect(x, y, w, h)


def _write_atomic(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _check_paths(inputs, outputs):
    for p in inputs:
        if not Path(p).is_file():
            raise OSError(f"input file not found: {p}")
    for p in outputs:
        parent = Path(p).parent
        if str(parent) and not parent.is_dir():
            raise OSError(f"output directory not found: {parent}")


def _read_image(path) -> pixmap.RgbImage:
    return pixmap.read_rgb_image(Path(path).read_bytes())


def _read_watermark(path) -> pixmap.WatermarkBitmap:
    return pixmap.read_watermark(Path(path).read_bytes())


def _fmt(value: float) -> str:
    return f"{value:.3f}" if math.isfinite(value) else "inf"


def cmd_embed(args) -> int:
    outputs = [args.output] + ([args.dump_plan] if args.dump_plan else [])
    _check_paths([args.original, args.watermark], outputs)
    original = _read_image(args.original)
    watermark = _read_watermark(args.watermark)
    plan = selection.select_blocks(original, args.delta)
    marked = codec.embed(original, watermark, args.alpha, plan=plan)
    _write_atomic(Path(args.output), pixmap.write_rgb_image(marked))
    if args.dump_plan:
        _write_atomic(Path(args.dump_plan), selection.serialize_plan(plan).encode("ascii"))
    print(f"psnr_db={_fmt(metrics.psnr(original, marked))}")
    print(selection.plan_summary(plan))
    return 0


def cmd_extract(args) -> int:
    inputs = [args.original, args.watermarked]
    if args.reference:
        inputs.append(args.reference)
    if args.use_plan:
        inputs.append(args.use_plan)
    _check_paths(inputs, [args.output])
    original = _read_image(args.original)
    watermarked = _read_image(args.watermarked)
    if args.use_plan:
        plan = selection.parse_plan(Path(args.use_plan).read_text("ascii"))
    else:
        plan = selection.select_blocks(original, args.delta)
    extracted = codec.extract(original, watermarked, plan=plan)
    _write_atomic(Path(args.output), pixmap.write_watermark(extracted))
    if args.reference:
        sigma = metrics.similarity(_read_watermark(args.reference), extracted)
        print(f"sigma={_fmt(sigma)}")
        print(f"matched={str(metrics.decide(sigma)).lower()}")
    return 0


def cmd_attack(args) -> int:
    _check_paths([args.input], [args.output])
    img = _read_image(args.input)
    if args.crop is not None:
        attacked = attacks.crop_attack(img, args.crop)
    elif args.grayscale:
        attacked = attacks.grayscale_attack(img)
    else:
        attacked = attacks.compress_attack(img, args.compress_quality)
    _write_atomic(Path(args.output), pixmap.write_rgb_image(attacked))
    return 0


def cmd_metrics(args) -> int:
    inputs = [args.reference, args.test]
    if args.bitmaps:
        inputs.extend(args.bitmaps)
    _check_paths(inputs, [])
    print(f"psnr_db={_fmt(metrics.psnr(_read_image(args.reference), _read_image(args.test)))}")
    if args.bitmaps:
        sigma = metrics.similarity(
            _read_watermark(args.bitmaps[0]), _read_watermark(args.bitmaps[1])
        )
        print(f"sigma={_fmt(sigma)}")
        print(f"matched={str(metrics.decide(sigma)).lower()}")
    return 0


def cmd_report(args) -> int:
    """Run the full attack grid and emit one CSV row per test."""
    _check_paths([args.original, args.watermark], [])
    original = _read_image(args.original)
    watermark = _read_watermark(args.watermark)
    plan = selection.select_blocks(original, args.delta)
    marked = codec.embed(original, watermark, args.alpha, plan=plan)
    keep = attacks.center_keep_rect(original.width, original.height)
    grid = [
        ("no-change", marked, True),
        ("crop", attacks.crop_attack(marked, keep), True),
        ("compress-0.75", attacks.compress_attack(marked, 0.75), True),
        ("grayscale", attacks.grayscale_attack(marked), False),
    ]
    print("test,psnr_db,sigma,matched")
    for name, attacked, with_psnr in grid:
        extracted = codec.extract(original, attacked, plan=plan)
        sigma = metrics.similarity(watermark, extracted)
        psnr_field = _fmt(metrics.psnr(original, attacked)) if with_psnr else ""
        print(f"{name},{psnr_field},{sigma:.3f},{str(metrics.decide(sigma)).lower()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumamark",
        description="Embed and extract a 32x32 watermark in image luminance; "
        "run deterministic robustness attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a watermark into a P6 image")
    p.add_argument("original", help="cover image (P6)")
    p.add_argument("watermark", help="32x32 watermark (P1/P4)")
    p.add_argument("output", help="watermarked image to write (P6)")
    p.add_argument("--alpha", type=_alpha_arg, default=codec.DEFAULT_ALPHA)
    p.add_argument("--delta", type=_delta_arg, default=selection.DEFAULT_DELTA)
    p.add_argument("--dump-plan", metavar="PATH", help="also write the selection plan")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="extract a watermark (needs the original)")
    p.add_argument("original", help="original cover image (P6)")
    p.add_argument("watermarked", help="watermarked image (P6)")
    p.add_argument("output", help="extracted watermark to write (P4)")
    p.add_argument("--reference", metavar="PBM", help="print sigma against this watermark")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--delta", type=_delta_arg, default=selection.DEFAULT_DELTA)
    group.add_argument("--use-plan", metavar="PATH",
                       help="load a selection plan instead of recomputing")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("attack", help="apply one deterministic attack")
    p.add_argument("input", help="image to attack (P6)")
    p.add_argument("output", help="attacked image to write (P6)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--crop", type=_crop_arg, metavar="X,Y,W,H",
                       help="blank everything outside the kept rectangle")
    group.add_argument("--grayscale", action="store_true")
    group.add_argument("--compress-quality", type=_quality_arg, metavar="Q",
                       help="DCT quantization at quality Q in (0, 1]")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("metrics", help="PSNR between two images; sigma between bitmaps")
    p.add_argument("reference", help="reference image (P6)")
    p.add_argument("test", help="image to compare (P6)")
    p.add_argument("--bitmaps", nargs=2, metavar=("REF", "EXTRACTED"),
                   help="also report similarity between two watermarks")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("report", help="embed, attack, extract: CSV of the whole grid")
    p.add_argument("original", help="cover image (P6)")
    p.add_argument("watermark", help="32x32 watermark (P1/P4)")
    p.add_argument("--alpha", type=_alpha_arg, default=codec.DEFAULT_ALPHA)
    p.add_argument("--delta", type=_delta_arg, default=selection.DEFAULT_DELTA)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*_FORMAT_ERRORS, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
