"""Command-line front end: embed, extract, attack, metrics, report.

Exit codes: 0 success, 1 I/O or file-format trouble (``OSError`` and
``ValueError``, which the file-format errors subclass), 2 every other
toolkit error (image too small, not enough candidate blocks, dimension
mismatch) and invalid usage. Each command checks all of its inputs, then
computes, then writes; each output goes to a temporary name and is renamed
into place, so a failing run leaves no output file behind.

``embed`` reads the cover once and writes it back with only the rows that
hold the 1024 carriers taken from a patched copy; its PSNR comes from the
carriers alone. ``extract`` opens both P6 files as ``RgbFile``s, which check
the headers and lengths, and ``codec.extract`` reads only the rows that
hold the carriers. Without ``--use-plan``, selection first reads the original
a strip at a time; a pipe, which has no offsets to read at, is read in full.
"""

import argparse
import contextlib
import math
import os
import stat
import sys
from pathlib import Path

from . import attacks, codec, metrics, pixmap, selection
from .errors import LumamarkError


def _alpha_arg(text: str) -> int:
    with contextlib.suppress(ValueError):
        if (value := int(text)) >= 1:
            return value
    raise argparse.ArgumentTypeError("alpha must be an integer >= 1")


def _quality_arg(text: str) -> float:
    with contextlib.suppress(ValueError):
        if 0.0 < (value := float(text)) <= 1.0:
            return value
    raise argparse.ArgumentTypeError("quality must be a number in (0, 1]")


def _crop_arg(text: str) -> attacks.CropRect:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("crop must be X,Y,W,H")
    try:
        x, y, w, h = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad crop rectangle: {exc}") from exc
    return attacks.CropRect(x, y, w, h)


def _write_atomic(outputs: dict[Path, list]) -> None:
    """Write each path's chunks to a temporary name, then rename each into
    place. A failure leaves no temporary and no renamed output behind."""
    written = []  # what a failure removes: each temporary, once renamed its output
    try:
        for path, chunks in outputs.items():
            # os.open applies the umask itself, as open() does, so the file
            # gets the mode a plain open() would give it.
            tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            written.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
        for k, path in enumerate(outputs):
            os.replace(written[k], path)
            written[k] = path
    except BaseException:
        for name in written:
            os.unlink(name)
        raise


def _check_outputs(*paths) -> None:
    """Fail before any work when an output cannot be renamed into place, or
    when two outputs name one file and the last rename would win."""
    for p in map(Path, paths):
        if p.is_dir():
            raise IsADirectoryError(f"output is a directory: {p}")
        if not p.parent.is_dir():
            raise FileNotFoundError(f"output directory not found: {p.parent}")
    if len({Path(p).resolve() for p in paths}) < len(paths):
        raise ValueError(f"outputs name one file: {', '.join(map(str, paths))}")


def _read_image(path) -> pixmap.RgbImage:
    return pixmap.read_rgb_image(Path(path).read_bytes())


def _read_watermark(path) -> pixmap.WatermarkBitmap:
    return pixmap.read_watermark(Path(path).read_bytes())


def _fmt(value: float) -> str:
    return f"{value:.3f}" if math.isfinite(value) else "inf"


def _embed(args):
    """Read the original and the watermark and select the plan."""
    original = _read_image(args.original)
    watermark = _read_watermark(args.watermark)
    return original, watermark, selection.select_blocks(original)


def _print_match(reference, extracted) -> None:
    sigma = metrics.similarity(reference, extracted)
    print(f"sigma={_fmt(sigma)}")
    print(f"matched={str(metrics.decide(sigma)).lower()}")


def cmd_embed(args) -> int:
    _check_outputs(*filter(None, (args.output, args.dump_plan)))
    original, watermark, plan = _embed(args)
    ys, xs = codec.embedded_pixel_coords(plan)
    carriers = original.pixels[ys, xs]
    marked = codec._mark(carriers, watermark.bits.reshape(-1), args.alpha)
    # The original's payload, with the rows that hold carriers from a copy.
    pixels, top, stop = original.pixels, int(ys.min()), int(ys.max()) + 1
    span = pixels[top:stop].copy()
    span[ys - top, xs] = marked
    header = pixmap.rgb_header(original.width, original.height)
    outputs = {Path(args.output): [header, pixels[:top], span, pixels[stop:]]}
    if args.dump_plan:
        outputs[Path(args.dump_plan)] = [selection.serialize_plan(plan).encode("ascii")]
    _write_atomic(outputs)
    psnr_db = metrics.carrier_psnr(carriers, marked, original.width * original.height)
    print(f"psnr_db={_fmt(psnr_db)}")
    print(selection.plan_summary(plan))
    return 0


def cmd_extract(args) -> int:
    _check_outputs(args.output)
    with contextlib.ExitStack() as files:
        def rgb_file(path):
            fh = files.enter_context(open(Path(path), "rb"))
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                return pixmap.RgbFile(fh)
            return pixmap.read_rgb_image(fh.read())  # a pipe has no offsets to read at

        original = rgb_file(args.original)
        watermarked = rgb_file(args.watermarked)
        reference = _read_watermark(args.reference) if args.reference else None
        plan = (selection.parse_plan(Path(args.use_plan).read_text("ascii"))
                if args.use_plan else None)
        extracted = codec.extract(original, watermarked, plan=plan)
    _write_atomic({Path(args.output): [pixmap.write_watermark(extracted)]})
    if reference is not None:
        _print_match(reference, extracted)
    return 0


def cmd_attack(args) -> int:
    _check_outputs(args.output)
    img = _read_image(args.input)
    if args.crop is not None:
        attacked = attacks.crop_attack(img, args.crop)
    elif args.grayscale:
        attacked = attacks.grayscale_attack(img)
    else:
        attacked = attacks.compress_attack(img, args.compress_quality)
    _write_atomic({Path(args.output): [pixmap.write_rgb_image(attacked)]})
    return 0


def cmd_metrics(args) -> int:
    reference, test = _read_image(args.reference), _read_image(args.test)
    bitmaps = [_read_watermark(p) for p in args.bitmaps or ()]
    print(f"psnr_db={_fmt(metrics.psnr(reference, test))}")
    if bitmaps:
        _print_match(*bitmaps)
    return 0


def cmd_report(args) -> int:
    """Run the full attack grid and emit one CSV row per test."""
    original, watermark, plan = _embed(args)
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

    embedding = argparse.ArgumentParser(add_help=False)  # shared by embed and report
    embedding.add_argument("original", help="cover image (P6)")
    embedding.add_argument("watermark", help="32x32 watermark (P1/P4)")
    embedding.add_argument("--alpha", type=_alpha_arg, default=codec.DEFAULT_ALPHA)

    p = sub.add_parser("embed", parents=[embedding],
                       help="embed a watermark into a P6 image")
    p.add_argument("output", help="watermarked image to write (P6)")
    p.add_argument("--dump-plan", metavar="PATH", help="also write the selection plan")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="extract a watermark (needs the original)")
    p.add_argument("original", help="original cover image (P6)")
    p.add_argument("watermarked", help="watermarked image (P6)")
    p.add_argument("output", help="extracted watermark to write (P4)")
    p.add_argument("--reference", metavar="PBM", help="print sigma against this watermark")
    p.add_argument("--use-plan", metavar="PATH",
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

    p = sub.add_parser("report", parents=[embedding],
                       help="embed, attack, extract: CSV of the whole grid")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # the file-format errors are ValueErrors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except LumamarkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
