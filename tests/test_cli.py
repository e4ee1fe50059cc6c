import os
import subprocess
import sys

import numpy as np
import pytest

from lumamark.cli import main
from lumamark.pixmap import (
    read_rgb_image,
    read_watermark,
    write_rgb_image,
    write_watermark,
)
from lumamark.selection import parse_plan

from support import (
    IMPOSSIBLE_PLAN_VALUES,
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

    def test_alpha_below_one_is_usage_error(self, paths, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm"), "--alpha", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("delta", ["0", "-1", "inf", "nan", "x"])
    def test_delta_not_finite_and_positive_is_usage_error(self, paths, tmp_path, delta):
        runs = [
            ["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm")],
            ["extract", paths["img"], paths["img"], str(tmp_path / "w.pbm")],
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_default_delta_reaches_selection(self, logo, tmp_path, capsys):
        # At delta 1000 the checkerboard block (8, 8) qualifies and leads the
        # plan; at the default delta it does not.
        img, wm = tmp_path / "img.ppm", tmp_path / "wm.pbm"
        img.write_bytes(write_rgb_image(delta_sensitive_image()))
        wm.write_bytes(write_watermark(logo))
        marked, plan_path = tmp_path / "marked.ppm", tmp_path / "plan.txt"
        assert main(["embed", str(img), str(wm), str(marked), "--delta", "1000",
                     "--dump-plan", str(plan_path)]) == 0
        lines = plan_path.read_text().splitlines()
        assert "delta=1000.0" in lines
        assert lines[5] == "8,8"
        by_delta, by_plan, by_default = (tmp_path / f"{n}.pbm" for n in ("d", "p", "x"))
        assert main(["extract", str(img), str(marked), str(by_delta), "--delta", "1000"]) == 0
        assert main(["extract", str(img), str(marked), str(by_plan),
                     "--use-plan", str(plan_path)]) == 0
        assert main(["extract", str(img), str(marked), str(by_default)]) == 0
        assert by_delta.read_bytes() == by_plan.read_bytes()
        assert by_delta.read_bytes() != by_default.read_bytes()

    def test_delta_and_use_plan_together_is_usage_error(self, paths, tmp_path):
        plan_path = tmp_path / "plan.txt"
        assert main(["embed", paths["img"], paths["logo"], str(tmp_path / "m.ppm"),
                     "--dump-plan", str(plan_path)]) == 0
        out = tmp_path / "w.pbm"
        with pytest.raises(SystemExit) as exc:
            main(["extract", paths["img"], str(tmp_path / "m.ppm"), str(out),
                  "--use-plan", str(plan_path), "--delta", "1000"])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("field,value", IMPOSSIBLE_PLAN_VALUES)
    def test_impossible_plan_exits_1(self, paths, tmp_path, capsys, field, value):
        marked, plan_path = tmp_path / "m.ppm", tmp_path / "plan.txt"
        assert main(["embed", paths["img"], paths["logo"], str(marked),
                     "--dump-plan", str(plan_path)]) == 0
        plan_path.write_text(edit_plan_field(plan_path.read_text(), field, value))
        out = tmp_path / "w.pbm"
        assert main(["extract", paths["img"], str(marked), str(out),
                     "--use-plan", str(plan_path)]) == 1
        assert f"ValueError: {field} must be finite and positive" in capsys.readouterr().err
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
        assert out.read_bytes() == open(paths["img"], "rb").read()

    def test_compress_changes_but_psnr_finite(self, paths, tmp_path, capsys):
        out = tmp_path / "out.ppm"
        assert main(["attack", paths["img"], str(out), "--compress-quality", "0.75"]) == 0
        assert out.read_bytes() != open(paths["img"], "rb").read()
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

    def test_bad_quality_rejected(self, paths, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["attack", paths["img"], str(tmp_path / "o.ppm"), "--compress-quality", "1.5"])
        assert exc.value.code == 2


class TestMetricsCommand:
    def test_identical_images_print_inf(self, paths, capsys):
        assert main(["metrics", paths["img"], paths["img"]]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "psnr_db=inf"

    def test_bitmap_similarity(self, paths, capsys, tmp_path):
        inverted = tmp_path / "inv.pbm"
        with open(paths["logo"], "rb") as fh:
            logo = read_watermark(fh.read())
        inverted.write_bytes(write_watermark(logo.complement()))
        assert main(["metrics", paths["img"], paths["img"],
                     "--bitmaps", paths["logo"], str(inverted)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "sigma=0.000" in out
        assert "matched=false" in out


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
