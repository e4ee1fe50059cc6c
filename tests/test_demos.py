"""Each demo script runs to completion, so API changes cannot leave them broken."""

import subprocess
import sys

import pytest

from support import ROOT, subprocess_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=subprocess_env(),
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
