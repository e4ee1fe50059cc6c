"""The three benchmark workloads.

Each workload drives lumamark only through its public functions, called
through module attributes (``codec.embed``, not a name bound at import) so
that a Tracer's wrappers see every call. A workload has five steps:

- ``setup()``: build the corpus (and, for the CLI workload, its files);
  ``warmup_ops`` ops follow it, as part of set-up. A run sets up
  ``setup_reps`` times and reports the median.
- ``make_input(seed, i)``: the inputs of op ``i``; not timed.
- ``op(inp)``: the timed work.
- ``collect(inp, out)``: the op's outputs as plain bytes and numpy arrays;
  not timed.
- ``check(inp, col)``: a list of problems, computed with plain numpy and no
  lumamark function; empty when the outputs are right.

``output_bytes(col)`` gives the bytes that go into the run's digest, and
``corrupt(col)`` a copy of ``col`` with one bit of the extracted watermark
flipped, which ``check`` must reject.
"""

import contextlib
import io
import shutil
from pathlib import Path

import numpy as np

from lumamark import attacks, cli, codec, colorspace, metrics, pixmap, selection, testimages

Y_WEIGHTS = np.array([0.299, 0.587, 0.114])


def op_seed(seed: int, i: int) -> int:
    """Watermark seed of op ``i``: the same (seed, i) always gives the same mark."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def luma(pixels: np.ndarray) -> np.ndarray:
    return pixels.astype(np.float64) @ Y_WEIGHTS


def y_psnr(reference: np.ndarray, test: np.ndarray) -> float:
    ssd = float(((luma(reference) - luma(test)) ** 2).sum())
    if ssd == 0.0:
        return float("inf")
    n = reference.shape[0] * reference.shape[1]
    return 10.0 * np.log10(255.0**2 * n / ssd)


def changed_pixels(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.count_nonzero(np.any(a != b, axis=2)))


def flip_first_bit(bits: np.ndarray) -> np.ndarray:
    flipped = bits.copy()
    flipped.flat[0] ^= 1
    return flipped


class Roundtrip512:
    """embed then extract with no plan: the 100-watermark round-trip sweep."""

    name = "roundtrip_512"
    warmup_ops = 3  # one per corpus image
    # Set-up takes well under a second here, so five repetitions keep its
    # median steady for little run time.
    setup_reps = 5

    def setup(self):
        self.images = [testimages.corpus_image(n) for n in testimages.CORPUS_NAMES]

    def make_input(self, seed, i):
        return self.images[i % 3], testimages.random_watermark(op_seed(seed, i))

    def op(self, inp):
        img, wm = inp
        marked = codec.embed(img, wm)
        return marked, codec.extract(img, marked)

    def collect(self, inp, out):
        img, wm = inp
        marked, extracted = out
        return {
            "original": img.pixels,
            "watermark": wm.bits,
            "marked": marked.pixels,
            "extracted": extracted.bits,
        }

    def check(self, inp, col):
        problems = []
        if not np.array_equal(col["extracted"], col["watermark"]):
            problems.append("extracted bits differ from the watermark")
        changed = changed_pixels(col["original"], col["marked"])
        if changed > 1024:
            problems.append(f"{changed} pixels changed, at most 1024 allowed")
        db = y_psnr(col["original"], col["marked"])
        if not 62.0 <= db <= 63.0:
            problems.append(f"Y-PSNR {db:.3f} dB outside [62, 63]")
        return problems

    def output_bytes(self, col):
        return [col["marked"].tobytes(), col["extracted"].tobytes()]

    def corrupt(self, col):
        return {**col, "extracted": flip_first_bit(col["extracted"])}

    def teardown(self):
        pass


LADDER = (1.0, 0.9, 0.75, 0.5)


class AttackGrid512:
    """Embed with a set-up plan, attack, extract and score: the report grid."""

    name = "attack_grid_512"
    warmup_ops = 3
    # A set-up costs about two seconds, most of it the three warm-up ops;
    # three repetitions leave more of the run's time budget to timed ops.
    setup_reps = 3

    def setup(self):
        self.images = [testimages.corpus_image(n) for n in testimages.CORPUS_NAMES]
        self.plans = [selection.select_blocks(colorspace.rgb_to_ycbcr(img)) for img in self.images]
        self.keep = attacks.center_keep_rect(512, 512)

    def make_input(self, seed, i):
        k = i % 3
        return self.images[k], self.plans[k], testimages.random_watermark(op_seed(seed, i))

    def op(self, inp):
        img, plan, wm = inp
        marked = codec.embed(img, wm, plan=plan)
        grid = [
            ("no-change", marked),
            ("crop", attacks.crop_attack(marked, self.keep)),
            ("grayscale", attacks.grayscale_attack(marked)),
        ]
        grid += [(f"compress-{q}", attacks.compress_attack(marked, q)) for q in LADDER]
        rows = []
        for name, attacked in grid:
            extracted = codec.extract(img, attacked, plan=plan)
            sigma = metrics.similarity(wm, extracted)
            db = None if name == "grayscale" else metrics.psnr(img, attacked)
            rows.append((name, attacked, extracted, sigma, db))
        return rows

    def collect(self, inp, out):
        img, _, wm = inp
        return {
            "original": img.pixels,
            "watermark": wm.bits,
            "rows": [(n, a.pixels, e.bits, s, db) for n, a, e, s, db in out],
        }

    def check(self, inp, col):
        problems = []
        sigmas = {}
        for name, attacked, extracted, sigma, db in col["rows"]:
            own = float(np.mean(extracted == col["watermark"]))
            if sigma != own:
                problems.append(f"{name}: similarity {sigma} but bits agree on {own}")
            sigmas[name] = own
            if db is not None and not abs(db - y_psnr(col["original"], attacked)) <= 1e-6:
                problems.append(f"{name}: psnr {db} disagrees with the Y-PSNR of the image")
        for name in ("no-change", "crop", "grayscale"):
            if sigmas[name] != 1.0:
                problems.append(f"{name}: sigma {sigmas[name]} != 1.0")
        ladder = [sigmas[f"compress-{q}"] for q in LADDER]
        if any(b > a for a, b in zip(ladder, ladder[1:])):
            problems.append(f"sigma rises along the compression ladder: {ladder}")
        if not sigmas["compress-0.75"] > 0.5:
            problems.append(f"compress-0.75: sigma {sigmas['compress-0.75']} <= 0.5")
        return problems

    def output_bytes(self, col):
        out = []
        for name, attacked, extracted, sigma, db in col["rows"]:
            out += [name.encode(), attacked.tobytes(), extracted.tobytes(), repr((sigma, db)).encode()]
        return out

    def corrupt(self, col):
        rows = list(col["rows"])
        name, attacked, extracted, sigma, db = rows[0]
        rows[0] = (name, attacked, flip_first_bit(extracted), sigma, db)
        return {**col, "rows": rows}

    def teardown(self):
        pass


P6_HEADER_2048 = b"P6\n2048 2048\n255\n"


class CliFiles2048:
    """embed --dump-plan then extract --use-plan through cli.main on P6 files."""

    name = "cli_files_2048"
    size = 2048
    # One warm-up op and three set-ups: an op costs over a second at 2048,
    # and each set-up builds three 2048x2048 images.
    warmup_ops = 1
    setup_reps = 3

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.originals = []
        for name in testimages.CORPUS_NAMES:
            path = self.workdir / f"{name}.ppm"
            path.write_bytes(pixmap.write_rgb_image(testimages.corpus_image(name, self.size)))
            self.originals.append(path)
        self.outputs = {
            key: self.workdir / fname
            for key, fname in (
                ("watermark", "watermark.pbm"),
                ("marked", "marked.ppm"),
                ("plan", "plan.txt"),
                ("extracted", "extracted.pbm"),
            )
        }

    def make_input(self, seed, i):
        return self.originals[i % 3], testimages.random_watermark(op_seed(seed, i))

    def op(self, inp):
        original, wm = inp
        out = self.outputs
        out["watermark"].write_bytes(pixmap.write_watermark(wm))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            embed_rc = cli.main(
                ["embed", str(original), str(out["watermark"]), str(out["marked"]),
                 "--dump-plan", str(out["plan"])]
            )
            extract_rc = cli.main(
                ["extract", str(original), str(out["marked"]), str(out["extracted"]),
                 "--reference", str(out["watermark"]), "--use-plan", str(out["plan"])]
            )
        return embed_rc, extract_rc, stdout.getvalue()

    def collect(self, inp, out):
        original, _ = inp
        embed_rc, extract_rc, stdout = out
        col = {key: path.read_bytes() for key, path in self.outputs.items()}
        col.update(
            original=original.read_bytes(),
            codes=(embed_rc, extract_rc),
            stdout=stdout,
            listing=sorted(p.name for p in self.workdir.iterdir()),
        )
        return col

    def check(self, inp, col):
        problems = []
        if col["codes"] != (0, 0):
            problems.append(f"exit codes {col['codes']}, expected (0, 0)")
        lines = col["stdout"].splitlines()
        for line in ("sigma=1.000", "matched=true"):
            if line not in lines:
                problems.append(f"stdout lacks {line!r}")
        if not any(line.startswith("psnr_db=") for line in lines):
            problems.append("stdout lacks the psnr_db line")
        if col["extracted"] != col["watermark"]:
            problems.append("extracted PBM differs from the watermark PBM")
        leftovers = [
            n for n in col["listing"]
            if any(n.startswith(f".{path.name}.") for path in self.outputs.values())
        ]
        if leftovers:
            problems.append(f"temporary files left behind: {leftovers}")
        if not col["marked"].startswith(P6_HEADER_2048):
            problems.append("marked image lacks the canonical 2048x2048 P6 header")
        else:
            shape = (self.size, self.size, 3)
            before = np.frombuffer(col["original"], np.uint8, offset=len(P6_HEADER_2048)).reshape(shape)
            after = np.frombuffer(col["marked"], np.uint8, offset=len(P6_HEADER_2048)).reshape(shape)
            changed = changed_pixels(before, after)
            if changed > 1024:
                problems.append(f"{changed} pixels changed, at most 1024 allowed")
        return problems

    def output_bytes(self, col):
        return [col["marked"], col["plan"], col["extracted"], col["stdout"].encode()]

    def corrupt(self, col):
        extracted = bytearray(col["extracted"])
        extracted[-1] ^= 1
        return {**col, "extracted": bytes(extracted)}

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()


NAMES = (Roundtrip512.name, AttackGrid512.name, CliFiles2048.name)


def make(name: str, workroot: Path):
    if name == Roundtrip512.name:
        return Roundtrip512()
    if name == AttackGrid512.name:
        return AttackGrid512()
    if name == CliFiles2048.name:
        return CliFiles2048(workroot / name)
    raise ValueError(f"unknown workload {name!r}; pick from {NAMES}")
