import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from lumamark import cli, codec, errors, metrics, pixmap
from lumamark.cli import main
from lumamark.pixmap import (
    WatermarkBitmap,
    read_rgb_image,
    read_watermark,
    write_rgb_image,
    write_watermark,
)
from lumamark.selection import parse_plan, plan_summary, select_blocks, serialize_plan
from lumamark.testimages import CORPUS_NAMES, random_watermark

from support import (
    CHECKERBOARD_FIRST_PLAN,
    IMPOSSIBLE_PLAN_VALUES,
    PLAN_VALUE_ERRORS,
    delta_sensitive_image,
    edit_plan_field,
    gray_image,
    subprocess_env,
)


@pytest.fixture
def paths(corpus_dir):
    return {
        "img": str(corpus_dir / "smooth_blobs.ppm"),
        "img2": str(corpus_dir / "soft_gradient.ppm"),
        "logo": str(corpus_dir / "logo.pbm"),
    }


def _commented_p6(img):
    """The image as P6 with comments between and after its header fields."""
    header = f"P6 # comment\n{img.width}#\n {img.height}\n# {'x' * 80}\n255\n"
    return header.encode("ascii") + img.pixels.tobytes()


def _cli_run(argv):
    """main(argv), and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert main(argv) == 0
    return [str(w.message) for w in record]


_ORACLE_INPUTS = (*CORPUS_NAMES, "black-commented")


class TestFilesMatchTheLibrary:
    """embed and extract write what the library's whole-image embed,
    extract and psnr give, byte for byte, and print the same lines."""

    @pytest.mark.parametrize("alpha", [3, 60], ids=["alpha3", "alpha60-clamps"])
    @pytest.mark.parametrize("name", _ORACLE_INPUTS)
    def test_embed_and_extract(self, corpus, tmp_path, capsys, name, alpha):
        commented = name == "black-commented"
        img = gray_image(0, 64, 64) if commented else corpus[name]
        wm = random_watermark(10 * alpha + _ORACLE_INPUTS.index(name))
        encode = _commented_p6 if commented else write_rgb_image
        orig, wm_path = tmp_path / "orig.ppm", tmp_path / "wm.pbm"
        marked, plan_path = tmp_path / "marked.ppm", tmp_path / "plan.txt"
        orig.write_bytes(encode(img))
        wm_path.write_bytes(write_watermark(wm))

        embed_warnings = _cli_run(["embed", str(orig), str(wm_path), str(marked),
                                   "--alpha", str(alpha), "--dump-plan", str(plan_path)])
        plan = select_blocks(img)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            expected = codec.embed(img, wm, alpha, plan=plan)
        assert embed_warnings == [str(w.message) for w in record]
        assert bool(embed_warnings) == commented
        assert marked.read_bytes() == write_rgb_image(expected)
        psnr_line = f"psnr_db={cli._fmt(metrics.psnr(img, expected))}"
        assert capsys.readouterr().out == f"{psnr_line}\n{plan_summary(plan)}\n"

        marked.write_bytes(encode(expected))
        extracted = codec.extract(img, expected, plan=plan)
        sigma = metrics.similarity(wm, extracted)
        lines = f"sigma={cli._fmt(sigma)}\nmatched={str(metrics.decide(sigma)).lower()}\n"
        for extra in ([], ["--use-plan", str(plan_path)]):
            out = tmp_path / "out.pbm"
            assert _cli_run(["extract", str(orig), str(marked), str(out),
                             "--reference", str(wm_path), *extra]) == []
            assert out.read_bytes() == write_watermark(extracted)
            assert capsys.readouterr().out == lines


class TestEmbedCommand:
    def test_success_prints_psnr_and_plan(self, paths, tmp_path, capsys):
        out = tmp_path / "marked.ppm"
        assert main(["embed", paths["img"], paths["logo"], str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("psnr_db=")
        value = float(lines[0].split("=")[1])
        assert 62.0 <= value <= 63.0
        assert any(ln.startswith("blocks=") for ln in lines)
        assert out.exists()

    def test_too_few_blocks_exits_2(self, paths, tmp_path, capsys):
        small = tmp_path / "small.ppm"
        small.write_bytes(write_rgb_image(gray_image(100, 16, 16)))
        code = main(["embed", str(small), paths["logo"], str(tmp_path / "o.ppm")])
        assert code == 2
        assert "InsufficientCandidates" in capsys.readouterr().err

    def test_missing_input_exits_1(self, paths, tmp_path, capsys):
        code = main(["embed", str(tmp_path / "nope.ppm"), paths["logo"], str(tmp_path / "o.ppm")])
        assert code == 1

    def test_no_partial_output_on_failure(self, paths, tmp_path):
        bad_wm = tmp_path / "bad.pbm"
        bad_wm.write_bytes(b"P1\n16 16\n" + b"0" * 256)
        out = tmp_path / "out.ppm"
        assert main(["embed", paths["img"], str(bad_wm), str(out)]) == 1
        assert not out.exists()

    def test_dump_plan(self, paths, tmp_path):
        plan_path = tmp_path / "plan.txt"
        assert main(["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm"),
                     "--dump-plan", str(plan_path)]) == 0
        plan = parse_plan(plan_path.read_text())
        assert len(plan.blocks) == 16

    def test_dump_plan_onto_the_output_writes_nothing(self, paths, tmp_path, capsys):
        # The plan would be renamed over the marked image, last rename wins.
        out = tmp_path / "out.ppm"
        assert main(["embed", paths["img"], paths["logo"], str(out),
                     "--dump-plan", str(tmp_path / "." / "out.ppm")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ValueError: outputs name one file: ")
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_alpha_below_one_is_usage_error(self, paths, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm"), "--alpha", "0"])
        assert exc.value.code == 2
        assert "argument --alpha: alpha must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["2.5", "x"])
    def test_non_integer_alpha_says_what_alpha_must_be(self, paths, tmp_path, capsys, alpha):
        # not argparse's "invalid _alpha_arg value", which names a private function
        with pytest.raises(SystemExit) as exc:
            main(["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm"), "--alpha", alpha])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --alpha: alpha must be an integer >= 1" in err
        assert "_arg" not in err

    @pytest.mark.parametrize("delta", ["0", "-1", "inf", "nan", "x", "0.0001"])
    def test_delta_not_finite_and_positive_is_usage_error(self, paths, tmp_path, delta):
        # delta is a constant, not an option: every value is invalid usage,
        # the constant's own 0.0001 included, with or without a plan.
        runs = [
            ["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm")],
            ["extract", paths["img"], paths["img"], str(tmp_path / "w.pbm")],
            ["extract", paths["img"], paths["img"], str(tmp_path / "w.pbm"),
             "--use-plan", str(tmp_path / "plan.txt")],
            ["report", paths["img"], paths["logo"]],
        ]
        for argv in runs:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--delta", delta])
            assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask022", "umask027"])
    def test_outputs_get_the_mode_the_umask_allows(self, paths, tmp_path, umask):
        marked, plan = tmp_path / "m.ppm", tmp_path / "plan.txt"
        previous = os.umask(umask)
        try:
            code = main(["embed", paths["img"], paths["logo"], str(marked),
                         "--dump-plan", str(plan)])
        finally:
            os.umask(previous)
        assert code == 0
        for path in (marked, plan):
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_writes_without_touching_the_umask(self, paths, tmp_path, monkeypatch):
        def umask(mask):
            raise AssertionError("the process umask is shared by every thread")

        monkeypatch.setattr(os, "umask", umask)
        assert main(["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm"),
                     "--dump-plan", str(tmp_path / "plan.txt")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ppm", "plan.txt"]

    def test_a_write_failing_midway_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            cli._write_atomic({tmp_path / "out.ppm": [b"P6\n", bytes(1 << 20), object()]})
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("call", ["open", "replace"])
    def test_a_failing_plan_write_leaves_no_marked_image(self, paths, tmp_path, monkeypatch, call):
        # Both outputs are written before either is renamed into place.
        real = getattr(os, call)

        def fail_on_plan(path, *args, **kwargs):
            if "plan.txt" in os.fspath(path if call == "open" else args[0]):
                raise PermissionError(f"{call} refused")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, call, fail_on_plan)
        code = main(["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm"),
                     "--dump-plan", str(tmp_path / "plan.txt")])
        assert code == 1
        assert not list(tmp_path.iterdir())

    def test_dump_plan_into_a_directory_writes_nothing(self, paths, tmp_path, capsys):
        (tmp_path / "plans").mkdir()
        code = main(["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm"),
                     "--dump-plan", str(tmp_path / "plans")])
        assert code == 1
        assert "IsADirectoryError" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["plans"]
        assert not list((tmp_path / "plans").iterdir())


class TestExtractCommand:
    def test_embed_then_extract_matches(self, paths, tmp_path, capsys):
        marked = tmp_path / "marked.ppm"
        main(["embed", paths["img"], paths["logo"], str(marked)])
        capsys.readouterr()
        out = tmp_path / "extracted.pbm"
        code = main(["extract", paths["img"], str(marked), str(out),
                     "--reference", paths["logo"]])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert "sigma=1.000" in printed
        assert "matched=true" in printed
        with open(paths["logo"], "rb") as fh:
            assert read_watermark(out.read_bytes()) == read_watermark(fh.read())

    def test_extract_against_itself_all_white(self, paths, tmp_path):
        out = tmp_path / "w.pbm"
        assert main(["extract", paths["img"], paths["img"], str(out)]) == 0
        assert read_watermark(out.read_bytes()).bits.min() == 1

    def test_bad_reference_writes_nothing(self, paths, tmp_path, capsys):
        bad = tmp_path / "bad.pbm"
        bad.write_bytes(b"P1\n16 16\n" + b"0" * 256)
        out = tmp_path / "w.pbm"
        code = main(["extract", paths["img"], paths["img"], str(out), "--reference", str(bad)])
        assert code == 1
        assert "WrongDimensions" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_exits_2(self, paths, tmp_path, capsys):
        narrow = tmp_path / "narrow.ppm"
        narrow.write_bytes(write_rgb_image(gray_image(10, 256, 512)))
        code = main(["extract", paths["img"], str(narrow), str(tmp_path / "w.pbm")])
        assert code == 2
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_use_plan_matches_default(self, paths, tmp_path, capsys):
        marked = tmp_path / "marked.ppm"
        plan_path = tmp_path / "plan.txt"
        main(["embed", paths["img"], paths["logo"], str(marked), "--dump-plan", str(plan_path)])
        a, b = tmp_path / "a.pbm", tmp_path / "b.pbm"
        assert main(["extract", paths["img"], str(marked), str(a)]) == 0
        assert main(["extract", paths["img"], str(marked), str(b),
                     "--use-plan", str(plan_path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_use_plan_reads_only_the_rows_that_hold_carriers(self, paths, tmp_path, monkeypatch):
        marked, plan_path = tmp_path / "marked.ppm", tmp_path / "plan.txt"
        assert main(["embed", paths["img"], paths["logo"], str(marked),
                     "--dump-plan", str(plan_path)]) == 0
        block_rows = [b.row for b in parse_plan(plan_path.read_text()).blocks]
        span_bytes = (max(block_rows) - min(block_rows) + 1) * 8 * 512 * 3
        requested = []

        def pread(fd, n, offset, real_pread=os.pread):
            requested.append(n)
            return real_pread(fd, n, offset)

        monkeypatch.setattr(pixmap.os, "pread", pread)
        monkeypatch.setattr(pixmap, "read_rgb_image", None)  # a whole read would fail
        assert main(["extract", paths["img"], str(marked), str(tmp_path / "w.pbm"),
                     "--use-plan", str(plan_path)]) == 0
        assert sorted(requested) == sorted(2 * [pixmap.RgbFile._PREFIX, span_bytes])
        assert span_bytes <= 512 * 512 * 3 // 8

    def test_without_a_plan_reads_the_original_by_strips(self, paths, tmp_path, monkeypatch):
        # Selection reads the original 32 rows at a time, then the 72 rows of
        # its first window of block means (32, 32 and 8 rows); then the
        # carrier rows of each file are read. Neither file is read whole.
        marked, plan_path = tmp_path / "marked.ppm", tmp_path / "plan.txt"
        assert main(["embed", paths["img"], paths["logo"], str(marked),
                     "--dump-plan", str(plan_path)]) == 0
        block_rows = [b.row for b in parse_plan(plan_path.read_text()).blocks]
        span_bytes = (max(block_rows) - min(block_rows) + 1) * 8 * 512 * 3
        requested = []

        def pread(fd, n, offset, real_pread=os.pread):
            requested.append(n)
            return real_pread(fd, n, offset)

        monkeypatch.setattr(pixmap.os, "pread", pread)
        monkeypatch.setattr(pixmap, "read_rgb_image", None)  # a whole read would fail
        assert main(["extract", paths["img"], str(marked), str(tmp_path / "w.pbm")]) == 0
        strips = [*16 * [32 * 512 * 3], *2 * [32 * 512 * 3], 8 * 512 * 3]
        expected = [*2 * [pixmap.RgbFile._PREFIX, span_bytes], *strips]
        assert sorted(requested) == sorted(expected)

    @pytest.mark.parametrize("fault", ["sizes", "sizes-use-plan", "grid", "sizes-and-grid"])
    def test_error_is_the_librarys(self, corpus, paths, tmp_path, capsys, fault):
        original, narrow = corpus["smooth_blobs"], gray_image(10, 256, 512)  # at paths["img"]
        narrow_path = tmp_path / "narrow.ppm"
        narrow_path.write_bytes(write_rgb_image(narrow))
        watermarked, watermarked_path = (
            (original, paths["img"]) if fault == "grid" else (narrow, str(narrow_path))
        )
        plan, extra = None, []
        if fault != "sizes":
            grid_of = original if fault == "sizes-use-plan" else gray_image(128, 256, 256)
            plan = select_blocks(grid_of)
            plan_path = tmp_path / "plan.txt"
            plan_path.write_text(serialize_plan(plan))
            extra = ["--use-plan", str(plan_path)]
        with pytest.raises(errors.LumamarkError) as exc:
            codec.extract(original, watermarked, plan=plan)
        out = tmp_path / "w.pbm"
        assert main(["extract", paths["img"], watermarked_path, str(out), *extra]) == 2
        assert capsys.readouterr().err == f"error: {type(exc.value).__name__}: {exc.value}\n"
        assert not out.exists()

    @staticmethod
    def _extract_with_a_pipe(paths, tmp_path, piped, use_plan):
        """extract with input ``piped`` (0 the original, 1 the watermarked
        image) fed through a FIFO gives the bitmap it gives from files."""
        marked, plan_path = tmp_path / "marked.ppm", tmp_path / "plan.txt"
        assert main(["embed", paths["img"], paths["logo"], str(marked),
                     "--dump-plan", str(plan_path)]) == 0
        inputs = [Path(paths["img"]), marked]
        fifo = tmp_path / "input.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=(inputs[piped].read_bytes(),), daemon=True
        )
        writer.start()
        by_pipe, by_file = tmp_path / "pipe.pbm", tmp_path / "file.pbm"
        extra = ["--use-plan", str(plan_path)] if use_plan else []
        piped_inputs = [str(fifo) if i == piped else str(p) for i, p in enumerate(inputs)]
        assert main(["extract", *piped_inputs, str(by_pipe), *extra]) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert main(["extract", *map(str, inputs), str(by_file), *extra]) == 0
        assert by_pipe.read_bytes() == by_file.read_bytes()

    @pytest.mark.parametrize("use_plan", [False, True], ids=["select", "use-plan"])
    def test_reads_a_watermarked_image_from_a_pipe(self, paths, tmp_path, use_plan):
        self._extract_with_a_pipe(paths, tmp_path, 1, use_plan)

    @pytest.mark.parametrize("use_plan", [False, True], ids=["select", "use-plan"])
    def test_reads_an_original_from_a_pipe(self, paths, tmp_path, use_plan):
        # A pipe is read in full, so a piped original without a plan is
        # selected from in memory.
        self._extract_with_a_pipe(paths, tmp_path, 0, use_plan)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_use_plan_reads_the_carriers_it_names(self, logo, tmp_path):
        # The checkerboard block (8, 8) leads this plan, where selection
        # skips it: extract --use-plan decodes the plan's carriers.
        original = delta_sensitive_image()
        marked = codec.embed(original, logo, plan=CHECKERBOARD_FIRST_PLAN)
        img, marked_path, plan_path = tmp_path / "img.ppm", tmp_path / "m.ppm", tmp_path / "p.txt"
        img.write_bytes(write_rgb_image(original))
        marked_path.write_bytes(write_rgb_image(marked))
        plan_path.write_text(serialize_plan(CHECKERBOARD_FIRST_PLAN))
        by_plan, by_default = tmp_path / "p.pbm", tmp_path / "x.pbm"
        assert main(["extract", str(img), str(marked_path), str(by_plan),
                     "--use-plan", str(plan_path)]) == 0
        assert main(["extract", str(img), str(marked_path), str(by_default)]) == 0
        expected = codec.extract(original, marked, plan=CHECKERBOARD_FIRST_PLAN)
        assert read_watermark(by_plan.read_bytes()) == expected
        assert by_plan.read_bytes() != by_default.read_bytes()

    @pytest.mark.parametrize("field,value", IMPOSSIBLE_PLAN_VALUES)
    def test_impossible_plan_exits_1(self, paths, tmp_path, capsys, field, value):
        marked, plan_path = tmp_path / "m.ppm", tmp_path / "plan.txt"
        assert main(["embed", paths["img"], paths["logo"], str(marked),
                     "--dump-plan", str(plan_path)]) == 0
        plan_path.write_text(edit_plan_field(plan_path.read_text(), field, value))
        out = tmp_path / "w.pbm"
        assert main(["extract", paths["img"], str(marked), str(out),
                     "--use-plan", str(plan_path)]) == 1
        assert f"ValueError: {PLAN_VALUE_ERRORS[field]}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_plan_block_line_exits_1(self, paths, tmp_path, capsys):
        marked, plan_path = tmp_path / "m.ppm", tmp_path / "plan.txt"
        assert main(["embed", paths["img"], paths["logo"], str(marked),
                     "--dump-plan", str(plan_path)]) == 0
        lines = plan_path.read_text().splitlines()
        lines[5] = "33;32"
        plan_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "w.pbm"
        assert main(["extract", paths["img"], str(marked), str(out),
                     "--use-plan", str(plan_path)]) == 1
        assert "ValueError: bad plan block line 1: '33;32'" in capsys.readouterr().err
        assert not out.exists()


class TestAttackCommand:
    def test_grayscale_fixed_point_byte_identical(self, tmp_path):
        src = tmp_path / "gray.ppm"
        src.write_bytes(write_rgb_image(gray_image(77, 64, 48)))
        out = tmp_path / "out.ppm"
        assert main(["attack", str(src), str(out), "--grayscale"]) == 0
        assert out.read_bytes() == src.read_bytes()

    def test_full_frame_crop_identity(self, paths, tmp_path):
        out = tmp_path / "out.ppm"
        assert main(["attack", paths["img"], str(out), "--crop", "0,0,512,512"]) == 0
        assert out.read_bytes() == Path(paths["img"]).read_bytes()

    def test_compress_changes_but_psnr_finite(self, paths, tmp_path, capsys):
        out = tmp_path / "out.ppm"
        assert main(["attack", paths["img"], str(out), "--compress-quality", "0.75"]) == 0
        assert out.read_bytes() != Path(paths["img"]).read_bytes()
        assert main(["metrics", paths["img"], str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("psnr_db=") and line != "psnr_db=inf"

    def test_exactly_one_attack_flag_required(self, paths, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["attack", paths["img"], str(tmp_path / "o.ppm")])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["attack", paths["img"], str(tmp_path / "o.ppm"),
                  "--grayscale", "--compress-quality", "0.5"])
        assert exc.value.code == 2

    def test_crop_out_of_bounds_exits_2(self, paths, tmp_path, capsys):
        code = main(["attack", paths["img"], str(tmp_path / "o.ppm"), "--crop", "0,0,1000,1000"])
        assert code == 2
        assert "RectOutOfBounds" in capsys.readouterr().err

    def test_bad_quality_rejected(self, paths, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", paths["img"], str(tmp_path / "o.ppm"), "--compress-quality", "1.5"])
        assert exc.value.code == 2
        assert "quality must be a number in (0, 1]" in capsys.readouterr().err

    def test_non_numeric_quality_says_what_quality_must_be(self, paths, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", paths["img"], str(tmp_path / "o.ppm"), "--compress-quality", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --compress-quality: quality must be a number in (0, 1]" in err
        assert "_arg" not in err


class TestMetricsCommand:
    def test_identical_images_print_inf(self, paths, capsys):
        assert main(["metrics", paths["img"], paths["img"]]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "psnr_db=inf"

    def test_bitmap_similarity(self, paths, capsys, tmp_path):
        inverted = tmp_path / "inv.pbm"
        with open(paths["logo"], "rb") as fh:
            logo = read_watermark(fh.read())
        inverted.write_bytes(write_watermark(WatermarkBitmap(1 - logo.bits)))
        assert main(["metrics", paths["img"], paths["img"],
                     "--bitmaps", paths["logo"], str(inverted)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "sigma=0.000" in out
        assert "matched=false" in out


_TOOLKIT_ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.LumamarkError)
]
_FORMAT_ERRORS = {errors.MalformedHeader, errors.TruncatedPayload, errors.WrongDimensions}


class TestExitCodes:
    @pytest.mark.parametrize(
        "cls", [*_TOOLKIT_ERRORS, OSError, ValueError], ids=lambda cls: cls.__name__
    )
    def test_exit_code_follows_error_class(self, cls, monkeypatch, capsys):
        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_metrics", fail)
        expected = 1 if cls in _FORMAT_ERRORS | {OSError, ValueError} else 2
        assert main(["metrics", "a.ppm", "b.ppm"]) == expected
        assert capsys.readouterr().err == f"error: {cls.__name__}: boom\n"

    def test_format_errors_are_exactly_the_value_errors(self):
        assert {cls for cls in _TOOLKIT_ERRORS if issubclass(cls, ValueError)} == _FORMAT_ERRORS

    @pytest.mark.parametrize("command", ["embed", "extract", "attack", "metrics", "report"])
    def test_missing_input_exits_1_and_writes_nothing(self, paths, tmp_path, capsys, command):
        # The missing file is the last input each command reads.
        missing = str(tmp_path / "missing")
        out = str(tmp_path / "out")
        argv = {
            "embed": [paths["img"], missing, out, "--dump-plan", str(tmp_path / "plan.txt")],
            "extract": [paths["img"], paths["img"], out, "--reference", missing],
            "attack": [missing, out, "--grayscale"],
            "metrics": [paths["img"], paths["img"], "--bitmaps", paths["logo"], missing],
            "report": [paths["img"], missing],
        }[command]
        assert main([command, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: FileNotFoundError: ")
        assert captured.out == ""
        assert not list(tmp_path.iterdir())


class TestReportCommand:
    def test_csv_grid(self, paths, capsys):
        assert main(["report", paths["img"], paths["logo"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "test,psnr_db,sigma,matched"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert set(rows) == {"no-change", "crop", "compress-0.75", "grayscale"}

        no_change = rows["no-change"]
        assert 62.0 <= float(no_change[1]) <= 63.0
        assert no_change[2] == "1.000" and no_change[3] == "true"

        assert rows["crop"][2] == "1.000" and rows["crop"][3] == "true"

        compress = rows["compress-0.75"]
        assert float(compress[2]) > 0.5 and compress[3] == "true"
        assert float(compress[1]) < 62.0  # visibly degraded

        grayscale = rows["grayscale"]
        assert grayscale[1] == ""  # PSNR column left empty
        assert grayscale[2] == "1.000" and grayscale[3] == "true"

    def test_deterministic_stdout(self, paths, capsys):
        main(["report", paths["img"], paths["logo"]])
        first = capsys.readouterr().out
        main(["report", paths["img"], paths["logo"]])
        assert capsys.readouterr().out == first


class TestConsoleEntry:
    @pytest.mark.parametrize("argv", [["-c", "import lumamark"], ["-m", "lumamark", "--help"]],
                             ids=["import", "help"])
    def test_scipy_fft_stays_unimported(self, argv):
        # -X importtime lists every module the process imports, by name.
        result = subprocess.run([sys.executable, "-X", "importtime", *argv],
                                env=subprocess_env(), capture_output=True, text=True)
        assert result.returncode == 0
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in result.stderr.splitlines() if line.startswith("import time:")}
        assert {"numpy", "lumamark.attacks", "lumamark.cli"} <= imported
        assert "scipy.fft" not in imported

    def test_module_invocation_smoke(self, paths, tmp_path):
        out = tmp_path / "m.ppm"
        result = subprocess.run(
            [sys.executable, "-m", "lumamark", "embed", paths["img"], paths["logo"], str(out)],
            env=subprocess_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("psnr_db=")
        assert read_rgb_image(out.read_bytes()).width == 512
